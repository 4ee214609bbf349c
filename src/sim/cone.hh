/**
 * @file
 * The cone-and-scratch core shared by every fault simulator
 * (FaultSimulator, SeqFaultSimulator, SeqFaultBatchSimulator) and the
 * planners that size or pack their work (FaultBatchPlan,
 * BatchClassifier, planSeqBatches / seqSiteCosts):
 *
 *  - FanoutCones enumerates structural fanout cones over a
 *    FlatNetlist's combinational consumer CSR: a per-instance memo of
 *    single-seed cones, the sorted union of a seed set, and the bare
 *    reachability walk apart from the sort for callers that only
 *    count. Every worklist it returns is sorted by ascending topoPos,
 *    a total order, so the result never depends on walk order — this
 *    is the one place that decides how a cone is enumerated.
 *  - ReplayScratch is the epoch-stamped copy-on-write state one cone
 *    replay runs in: faulty line blocks valid iff stamp[g] == epoch,
 *    caller-forced gates, and the kernel's fan-in pointer scratch,
 *    plus thin wrappers over the sim/wide.hh replay / assembly /
 *    latch kernels that supply it.
 *
 * Both are single-threaded scratch, sized once at construction: the
 * per-fault and per-period hot paths allocate nothing.
 */

#ifndef SCAL_SIM_CONE_HH
#define SCAL_SIM_CONE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/flat.hh"
#include "sim/wide.hh"

namespace scal::sim
{

/** Sort @p gates in place by ascending topoPos (the replay order). */
void sortByTopo(const FlatNetlist &flat,
                std::vector<netlist::GateId> &gates);

class FanoutCones
{
  public:
    explicit FanoutCones(const FlatNetlist &flat);

    /** The topo-sorted fanout cone of @p seed (seed included),
     *  memoized: built on first request, a lookup afterwards. */
    const std::vector<netlist::GateId> &
    cone(netlist::GateId seed)
    {
        if (!built_[static_cast<std::size_t>(seed)])
            buildCone(seed);
        return memo_[static_cast<std::size_t>(seed)];
    }

    /**
     * Every gate reachable from @p seeds[0, n) (seeds included, each
     * gate once), in walk order — no sort. Duplicate seeds are fine.
     * The buffer is shared with unionCone() and valid until the next
     * reach()/unionCone() call; cone() never touches it.
     */
    const std::vector<netlist::GateId> &reach(const netlist::GateId *seeds,
                                              std::size_t n);

    /** reach() sorted by ascending topoPos: the replay worklist of
     *  the union of the seeds' cones. */
    const std::vector<netlist::GateId> &
    unionCone(const netlist::GateId *seeds, std::size_t n)
    {
        reach(seeds, n);
        sortByTopo(flat_, union_);
        return union_;
    }

  private:
    void buildCone(netlist::GateId seed);
    /** Walk from the stamped stack_, appending to @p out. */
    void walk(std::vector<netlist::GateId> &out);
    void bumpVisit();

    const FlatNetlist &flat_;
    std::vector<std::vector<netlist::GateId>> memo_;
    std::vector<std::uint8_t> built_;
    std::vector<std::uint32_t> visit_;
    std::uint32_t visitEpoch_ = 0;
    std::vector<netlist::GateId> stack_;
    std::vector<netlist::GateId> union_;
};

class ReplayScratch
{
  public:
    ReplayScratch(const FlatNetlist &flat, const detail::WideKernels &k);

    /** Start a new injection: every line reads its good value again
     *  and no gate is forced. */
    void
    bump()
    {
        if (++epoch_ == 0)
            resetStamps(); // wraparound: stale stamps would alias
    }

    /** Faulty block of line @p g (meaningful once stamped). */
    std::uint64_t *
    line(netlist::GateId g)
    {
        return faulty_.data() + static_cast<std::size_t>(g) * W_;
    }
    /** Mark line @p g's faulty block live for this epoch. */
    void
    stamp(netlist::GateId g)
    {
        stamp_[static_cast<std::size_t>(g)] = epoch_;
    }
    /** Pin gate @p g: replay leaves it as the caller set it. */
    void
    force(netlist::GateId g)
    {
        forced_[static_cast<std::size_t>(g)] = epoch_;
    }
    bool forced(netlist::GateId g) const
    {
        return forced_[static_cast<std::size_t>(g)] == epoch_;
    }
    /** Pin line @p g to the W-word @p block (force + live faulty
     *  copy); returns the replay frontier it opens. */
    int
    pin(netlist::GateId g, const std::uint64_t *block)
    {
        force(g);
        std::copy(block, block + W_, line(g));
        stamp(g);
        return flat_.fanoutDegree(g);
    }

    /** Line @p g after the last replay: the faulty block where
     *  stamped this epoch, @p good's elsewhere. */
    const std::uint64_t *
    value(netlist::GateId g, const std::uint64_t *good) const
    {
        const std::uint64_t *base =
            stamp_[static_cast<std::size_t>(g)] == epoch_ ? faulty_.data()
                                                          : good;
        return base + static_cast<std::size_t>(g) * W_;
    }

    /** WideKernels::replayCone over this scratch. */
    void
    replay(const std::uint64_t *good, const netlist::GateId *work,
           std::size_t nwork, const detail::WideBranchInj *binj,
           std::size_t nbinj, const detail::WideStemInj *sinj,
           std::size_t nsinj, int last_branch_pos, std::int64_t frontier)
    {
        k_->replayCone(flat_, good, faulty_.data(), stamp_.data(),
                       forced_.data(), epoch_, work, nwork, binj, nbinj,
                       sinj, nsinj, last_branch_pos, frontier, ptrs_.data());
    }

    /** WideKernels::assembleOutputs over this scratch. */
    void
    assemble(const std::uint64_t *good, std::uint64_t *out) const
    {
        k_->assembleOutputs(flat_, good, faulty_.data(), stamp_.data(),
                            epoch_, out);
    }

    /** WideKernels::latchAndTrack over this scratch. */
    int
    latchAndTrack(const std::uint8_t *elig, const std::uint64_t *good,
                  int branch_ff, const std::uint64_t *branch_value,
                  std::uint64_t *faulty_state,
                  const std::uint64_t *good_next,
                  std::int32_t *diverged_out) const
    {
        return k_->latchAndTrack(flat_, elig, good, faulty_.data(),
                                 stamp_.data(), epoch_, branch_ff,
                                 branch_value, faulty_state, good_next,
                                 diverged_out);
    }

  private:
    void resetStamps();

    const FlatNetlist &flat_;
    const detail::WideKernels *k_;
    std::size_t W_;
    WordVec faulty_;
    std::vector<std::uint32_t> stamp_;
    std::vector<std::uint32_t> forced_;
    std::uint32_t epoch_ = 0;
    std::vector<const std::uint64_t *> ptrs_;
};

} // namespace scal::sim

#endif // SCAL_SIM_CONE_HH
