/**
 * @file
 * Fault-parallel classification over a FlatNetlist: fanout-free-region
 * (FFR) routing, disjoint-cone fault batching, and a
 * critical-path-tracing (CPT) fast path.
 *
 * The per-fault campaign kernel pays one two-phase cone replay plus a
 * full-output fold for every collapsed class x pattern block. This
 * layer cuts that cost on three axes while keeping verdict masks
 * bit-identical to FaultSimulator::classifyAlternatingWide for every
 * class:
 *
 *  - **Routing.** Every collapsed class is assigned to the FFR whose
 *    tree contains its fault sites (equivalence chains never cross an
 *    FFR root, so the assignment is well defined) and given one of
 *    five resolutions: `Flip` (the class carries an FFR root's stem
 *    fault: derived from the root's flip response, below), `Tap` (an
 *    output-branch fault: the faulty output block IS the stuck value,
 *    no simulation needed), `Cpt` (all members interior to a
 *    supported FFR: derived analytically, below), `Pruned`
 *    (structurally forced Untestable by fault/collapse dominance —
 *    skipped outright), or `Sim` (must be simulated — CPT cannot
 *    handle its region).
 *  - **Flip passes.** The root's *flip response* at each output — the
 *    lanes where complementing the root line changes that output — is
 *    computed by ONE replay per phase injecting the complement of the
 *    root's good value. Lane-wise, a stuck-at-v fault on the root is
 *    the flip wherever the good value is ~v and a no-op elsewhere, so
 *    BOTH stuck-at polarities derive analytically from the one pass:
 *    err(sa-v) = excitation_v & flip error. The pass skips output
 *    assembly entirely; the fold reads the replayed lines of the
 *    root's reachable outputs only.
 *  - **Batching.** Flip units (and residual `Sim` classes) with
 *    pairwise-disjoint fanout cones are packed into one replay pass
 *    (exact by superposition: a fault's effect never leaves its cone,
 *    so disjoint cones cannot interact) with each member's fold
 *    restricted to the outputs its own cone drives. The batches are
 *    packed once per shard; each pass is one event-driven replay
 *    seeded from its members' injections, so no batch keeps a
 *    worklist.
 *  - **CPT.** Inside an FFR the path from any line to the FFR root is
 *    unique, so fault propagation to the root is exact single-path
 *    sensitization: err_root = excitation & criticality, where
 *    criticality is a backtrace product of gate sensitivities on the
 *    path. Beyond the root, err at each output is err_root & the flip
 *    response the flip pass already produced. One backtrace per FFR
 *    therefore classifies every interior fault with zero replays.
 *
 * Exactness guard: the campaign fold treats the fault-free phase-2
 * output as the complement of phase 1, so on a block where the good
 * outputs are not perfectly alternating (a non-self-dual circuit)
 * even a no-effect fault picks up baseline mask bits. The fast paths
 * are therefore gated per block on `good1 == ~good0`; blocks that
 * fail the check fall back to per-class simulation, preserving
 * bit-identity for arbitrary circuits while hardened SCAL networks —
 * the only ones where the campaign verdict means anything — always
 * take the fast path.
 *
 * A FaultBatchPlan is immutable after construction and shared
 * read-only by every worker; each worker owns a BatchClassifier
 * (scratch + batch structures for its shard).
 */

#ifndef SCAL_SIM_BATCH_SIM_HH
#define SCAL_SIM_BATCH_SIM_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/fault_sim.hh"
#include "sim/flat.hh"
#include "sim/wide.hh"

namespace scal::sim
{

/** Resolution of one collapsed class (see file comment). */
enum class ClassRoute : std::uint8_t
{
    Pruned,
    Flip,
    Sim,
    Tap,
    Cpt,
};

struct BatchPlanStats
{
    int groups = 0;
    int flipClasses = 0;
    int simClasses = 0;
    int tapClasses = 0;
    int cptClasses = 0;
    int prunedClasses = 0;
};

class FaultBatchPlan
{
  public:
    /**
     * Build the routing plan for the collapsed universe of @p flat.
     * @p all_faults / @p class_of / @p representatives / @p pruned
     * come from fault::collapseFaults (pruned may be empty when
     * dominance analysis was off); @p enable_cpt gates the Cpt route.
     * Combinational netlists only.
     */
    FaultBatchPlan(const FlatNetlist &flat,
                   const std::vector<netlist::Fault> &all_faults,
                   const std::vector<int> &class_of,
                   const std::vector<netlist::Fault> &representatives,
                   const std::vector<std::uint8_t> &pruned,
                   bool enable_cpt);

    const FlatNetlist &flat() const { return *flat_; }
    int numGroups() const
    {
        return static_cast<int>(groupRoots_.size());
    }
    int numClasses() const { return static_cast<int>(route_.size()); }

    /** Heuristic per-group simulation cost, for weighted sharding. */
    const std::vector<std::uint64_t> &groupCosts() const
    {
        return groupCost_;
    }

    /** Classes of group g occupy positions
     *  [classOffset(g), classOffset(g+1)) of classList(). */
    const std::vector<int> &classList() const { return classList_; }
    std::size_t classOffset(int g) const
    {
        return static_cast<std::size_t>(classOff_[g]);
    }

    ClassRoute routeOf(int cls) const { return route_[cls]; }
    BatchPlanStats stats() const;

  private:
    friend class BatchClassifier;

    const FlatNetlist *flat_;
    bool cpt_;

    /** FFR root of every gate. */
    std::vector<netlist::GateId> rootOf_;

    /** @name Per class (index = collapsed class id) */
    /** @{ */
    std::vector<ClassRoute> route_;
    /** The member this class is resolved through: the injected fault
     *  for Sim, the root stem fault for Flip, the output-branch fault
     *  for Tap, the interior site for Cpt, the representative for
     *  Pruned (fallback path). All members share one faulty function,
     *  so the choice is invisible in the masks. */
    std::vector<netlist::Fault> simFault_;
    std::vector<int> groupOf_;
    std::vector<std::int32_t> coneOff_;     ///< per class + 1 (Sim only)
    std::vector<netlist::GateId> coneData_; ///< topo-sorted cones
    std::vector<std::int32_t> ownOff_;      ///< per class + 1
    std::vector<std::int32_t> ownData_;     ///< owned output ids
    /** @} */

    /** @name Per group (one per FFR root owning >= 1 class) */
    /** @{ */
    std::vector<netlist::GateId> groupRoots_;
    std::vector<std::int32_t> classOff_; ///< per group + 1
    std::vector<int> classList_;
    std::vector<std::uint64_t> groupCost_;
    std::vector<std::uint8_t> groupCpt_;  ///< has >= 1 Cpt class
    std::vector<std::uint8_t> flipNeed_;  ///< has >= 1 Flip class
    /** Root fanout cones (topo-sorted) of flip-needing groups: the
     *  flip pass worklist unit the batcher packs. */
    std::vector<std::int32_t> groupConeOff_; ///< per group + 1
    std::vector<netlist::GateId> groupConeData_;
    /** Outputs reachable from the root; doubles as the flip-response
     *  slot index space (slot = rootTapOff_[g] + t). A group with Cpt
     *  classes but no Flip class (both root stems dominance-pruned)
     *  keeps its slots all-zero, which is exact: the flip response is
     *  the union of the two pruned — hence everywhere-null — stem
     *  error masks. */
    std::vector<std::int32_t> rootTapOff_; ///< per group + 1
    std::vector<std::int32_t> rootTapData_;
    std::vector<std::int32_t> ffrOff_; ///< per group + 1 (Cpt groups)
    std::vector<netlist::GateId> ffrData_; ///< FFR gates, topo-ascending
    /** @} */
};

/**
 * Per-worker classifier: batches a shard's Sim classes once, then
 * classifies every class of the shard against each cached alternating
 * block of the owning FaultSimulator. Not thread-safe; one per worker.
 */
class BatchClassifier
{
  public:
    /** Called once per class per block with the class's position in
     *  plan.classList() and its verdict masks for the block. */
    using Emit = std::function<void(std::size_t, const WideMasks &)>;

    /** @p batching packs disjoint-cone Sim classes per pass; when
     *  false every Sim class runs in its own pass (the CPT/pruning
     *  benefits remain). */
    BatchClassifier(FaultSimulator &sim, const FaultBatchPlan &plan,
                    bool batching);

    /** Build the batch structures for groups [begin, end). */
    void setRange(int group_begin, int group_end);

    /** Replay passes per block for the current range (flip batches
     *  plus residual Sim batches). */
    std::uint64_t numBatches() const
    {
        return flipBatches_.size() + batches_.size();
    }

    /**
     * Classify every class of the current range against the block
     * cached by FaultSimulator::setAlternatingBlock, emitting masks
     * bit-identical to classifyAlternatingWide of each class's
     * representative. Pruned classes emit nothing on self-dual blocks
     * (their masks are all-zero by construction).
     */
    void classifyBlock(const Emit &emit);

  private:
    struct Member
    {
        int cls;
        std::size_t pos; ///< position in plan.classList()
    };
    struct Batch
    {
        std::vector<netlist::Fault> faults;
        std::vector<Member> members;
    };
    /** One flip replay covering several cone-disjoint group roots. */
    struct FlipBatch
    {
        std::vector<netlist::GateId> roots;
        std::vector<int> groups;
    };

    /** Slot aggregates of one group's flip responses; the Flip/Cpt
     *  folds are O(laneWords) functions of these (see computeAgg). */
    struct FlipAgg
    {
        std::uint64_t X[kMaxLaneWords];
        std::uint64_t Y[kMaxLaneWords];
        std::uint64_t P[kMaxLaneWords];
        std::uint64_t Q[kMaxLaneWords];
        std::uint64_t R[kMaxLaneWords];
    };

    void computeSens(netlist::GateId g, const std::uint64_t *lines,
                     std::uint64_t *sens);
    void computeCrit(int group);
    void computeAgg(int group, FlipAgg &agg);
    void foldAgg(const std::uint64_t *a, const std::uint64_t *b,
                 const FlipAgg &agg, WideMasks &m);
    void foldFlip(int cls, const FlipAgg &agg, WideMasks &m);
    void foldCpt(int cls, const FlipAgg &agg, WideMasks &m);

    FaultSimulator &sim_;
    const FaultBatchPlan &plan_;
    bool batching_;
    int g0_ = 0, g1_ = 0;

    std::vector<FlipBatch> flipBatches_;
    std::vector<Batch> batches_;
    std::vector<std::int32_t> lastBatch_; ///< per gate, batch coloring

    /** Per-phase in-FFR criticality blocks, indexed by gate. */
    WordVec crit_[2];
    /** Root flip responses: slot-major, (slot * 2 + phase) * W. */
    WordVec errFlip_;
    /** Sensitivity scratch: (3 * maxArity + 2) * W words. */
    WordVec sensScratch_;
};

} // namespace scal::sim

#endif // SCAL_SIM_BATCH_SIM_HH
