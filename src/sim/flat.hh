/**
 * @file
 * FlatNetlist: a netlist::Netlist compiled into contiguous
 * cache-friendly CSR arrays for the hot simulation kernels.
 *
 * The pointer-chasing Netlist representation (vector<Gate> of
 * vector<GateId> fanins, lazily built consumer caches) is what the
 * fault campaigns used to walk for every single fault x pattern-block
 * pair. FlatNetlist freezes one immutable snapshot of the structure:
 *
 *  - kinds[], fanin CSR, consumer CSR (combinational edges only),
 *    per-gate output-tap lists,
 *  - the topological order, each gate's position in it, and its
 *    logic level; the level order (gates sorted by level) that the
 *    event-driven replay schedules by, with the consumer CSR re-keyed
 *    by it,
 *  - O(1) GateId -> input-index and GateId -> flip-flop-index tables
 *    (replacing the linear scans the scalar/packed evaluators did per
 *    Dff gate).
 *
 * A FlatNetlist is self-contained (no reference back to the source
 * Netlist), cheap to copy, and safe to share read-only across worker
 * threads; per-thread mutable scratch lives in sim::FaultSimulator.
 */

#ifndef SCAL_SIM_FLAT_HH
#define SCAL_SIM_FLAT_HH

#include <cstdint>
#include <vector>

#include "netlist/netlist.hh"

namespace scal::sim
{

class FlatNetlist
{
  public:
    explicit FlatNetlist(const netlist::Netlist &net);

    int numGates() const { return n_; }
    int numInputs() const { return ni_; }
    int numOutputs() const { return no_; }
    int numFlipFlops() const { return nff_; }
    int numLevels() const { return nlevels_; }
    int maxArity() const { return maxArity_; }

    netlist::GateKind kind(netlist::GateId g) const
    {
        return kinds_[g];
    }

    /** @name Fanin CSR */
    /** @{ */
    int arity(netlist::GateId g) const
    {
        return faninOff_[g + 1] - faninOff_[g];
    }
    const netlist::GateId *fanins(netlist::GateId g) const
    {
        return fanins_.data() + faninOff_[g];
    }
    /** @} */

    /** @name Combinational consumer CSR (Dff D-pins excluded) */
    /** @{ */
    int fanoutDegree(netlist::GateId g) const
    {
        return consOff_[g + 1] - consOff_[g];
    }
    const netlist::GateId *consumers(netlist::GateId g) const
    {
        return cons_.data() + consOff_[g];
    }
    /** @} */

    /** @name Output taps: primary-output indices driven by g */
    /** @{ */
    int numTaps(netlist::GateId g) const
    {
        return tapOff_[g + 1] - tapOff_[g];
    }
    const std::int32_t *taps(netlist::GateId g) const
    {
        return taps_.data() + tapOff_[g];
    }
    /** @} */

    /** Combinational topological order (Dffs ordered as sources). */
    const std::vector<netlist::GateId> &topoOrder() const
    {
        return topo_;
    }
    /** Position of @p g within topoOrder(). */
    int topoPos(netlist::GateId g) const { return topoPos_[g]; }
    /** Logic level: 0 for sources, 1 + max(fanin level) otherwise. */
    int level(netlist::GateId g) const { return level_[g]; }

    /** @name Level order: the gates sorted by (level, topoPos) */
    /** @{ */
    /** A topological order in which every level is one contiguous
     *  run, so no combinational edge joins two gates of one run. */
    const std::vector<netlist::GateId> &levelOrder() const
    {
        return levelOrder_;
    }
    /** Position of @p g within levelOrder(). */
    int levelPos(netlist::GateId g) const { return levelPos_[g]; }
    /** Bitset over levelOrder() positions: bit p (of word p / 64) is
     *  set iff position p is the first of its level. */
    const std::uint64_t *levelStarts() const { return levelStarts_.data(); }
    /** The consumer CSR re-keyed by levelOrder() position: the
     *  positions of the consumers of the gate at position @p pos. */
    int fanoutAt(int pos) const
    {
        return levelConsOff_[pos + 1] - levelConsOff_[pos];
    }
    const std::int32_t *consumersAt(int pos) const
    {
        return levelCons_.data() + levelConsOff_[pos];
    }
    /** @} */

    /** Index of @p g within the primary inputs, or -1. */
    int inputIndex(netlist::GateId g) const { return inputIndex_[g]; }
    /** Index of @p g within the flip-flop state vector, or -1. */
    int ffIndex(netlist::GateId g) const { return ffIndex_[g]; }

    /** @name Flip-flop tables, indexed as net.flipFlops() */
    /** @{ */
    netlist::GateId ffGate(int i) const { return ffGates_[i]; }
    /** The gate driving flip-flop @p i's D pin. */
    netlist::GateId ffDriver(int i) const
    {
        return fanins_[faninOff_[ffGates_[i]]];
    }
    netlist::LatchMode ffLatch(int i) const { return ffLatch_[i]; }
    bool ffInit(int i) const { return ffInit_[i] != 0; }
    /** @} */

    /** Driving gate of primary output @p j. */
    netlist::GateId output(int j) const { return outputs_[j]; }
    const std::vector<netlist::GateId> &outputs() const
    {
        return outputs_;
    }

  private:
    int n_ = 0, ni_ = 0, no_ = 0, nff_ = 0, nlevels_ = 0, maxArity_ = 0;
    std::vector<netlist::GateKind> kinds_;
    std::vector<std::int32_t> faninOff_;
    std::vector<netlist::GateId> fanins_;
    std::vector<std::int32_t> consOff_;
    std::vector<netlist::GateId> cons_;
    std::vector<std::int32_t> tapOff_;
    std::vector<std::int32_t> taps_;
    std::vector<netlist::GateId> topo_;
    std::vector<std::int32_t> topoPos_;
    std::vector<std::int32_t> level_;
    std::vector<netlist::GateId> levelOrder_;
    std::vector<std::int32_t> levelPos_;
    std::vector<std::uint64_t> levelStarts_;
    std::vector<std::int32_t> levelConsOff_;
    std::vector<std::int32_t> levelCons_;
    std::vector<std::int32_t> inputIndex_;
    std::vector<std::int32_t> ffIndex_;
    std::vector<netlist::GateId> ffGates_;
    std::vector<netlist::LatchMode> ffLatch_;
    std::vector<std::uint8_t> ffInit_;
    std::vector<netlist::GateId> outputs_;
};

} // namespace scal::sim

#endif // SCAL_SIM_FLAT_HH
