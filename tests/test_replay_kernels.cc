/**
 * The event-driven replay kernel (WideKernels::replayEvents, the one
 * every production replay runs) against the cone-walk oracle
 * (WideKernels::replayCone) on seeded random injection sets over the
 * hardened c432, s298 and s1488-class machines, at 64, 256 and 512
 * lanes on both the portable and the native kernel build. After every
 * replay the two scratches must stamp the same lines and hold the
 * same faulty blocks on them.
 *
 * Each trial mixes the injection kinds the simulators use: whole-block
 * stem pins, forced pins that leave the good value in place, flipped
 * lines, diverged flip-flop seeds, lane-masked (and whole-block)
 * branch pins, and lane-masked stem injections (WideStemInj) seeded
 * the way the lane-batched sequential simulator seeds them.
 */

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/netlist.hh"
#include "sim/cone.hh"
#include "sim/flat.hh"
#include "sim/wide.hh"
#include "util/rng.hh"

using namespace scal;
using namespace scal::netlist;

namespace
{

std::string
circuitPath(const std::string &file)
{
    for (const char *dir : {"circuits", "../circuits", "../../circuits"}) {
        const std::string p = std::string(dir) + "/" + file;
        if (std::ifstream(p))
            return p;
    }
    ADD_FAILURE() << "cannot locate circuits/" << file;
    return file;
}

/** One random injection set, applied identically to both scratches. */
class Trial
{
  public:
    Trial(const sim::FlatNetlist &flat, const std::uint64_t *good, int W,
          util::Rng &rng)
        : flat_(flat), good_(good), W_(static_cast<std::size_t>(W)),
          rng_(rng), used_(static_cast<std::size_t>(flat.numGates()), 0)
    {
        const int n = flat.numGates();
        const int kinds = 1 + static_cast<int>(rng_.below(6));
        blocks_.reserve(static_cast<std::size_t>(4 * kinds) * W_);
        for (int i = 0; i < kinds; ++i) {
            switch (rng_.below(6)) {
              case 0: // whole-block stem pin
                if (const GateId g = pick(n, false); g != kNoGate)
                    pins_.push_back({g, randomBlock()});
                break;
              case 1: // forced pin that keeps the good value
                if (const GateId g = pick(n, false); g != kNoGate)
                    forces_.push_back(g);
                break;
              case 2: // flipped line
                if (const GateId g = pick(n, false); g != kNoGate)
                    flips_.push_back(g);
                break;
              case 3: // diverged flip-flop seed
                if (flat.numFlipFlops() > 0) {
                    const GateId g = flat.ffGate(static_cast<int>(
                        rng_.below(static_cast<std::uint64_t>(
                            flat.numFlipFlops()))));
                    if (!used_[static_cast<std::size_t>(g)]) {
                        used_[static_cast<std::size_t>(g)] = 1;
                        pins_.push_back({g, randomBlock()});
                    }
                }
                break;
              case 4: { // branch pin, lane-masked two times in three
                const GateId c = pick(n, true);
                if (c == kNoGate)
                    break;
                const int pin = static_cast<int>(
                    rng_.below(static_cast<std::uint64_t>(flat.arity(c))));
                const std::uint64_t *mask =
                    rng_.below(3) != 0 ? randomBlock() : nullptr;
                binj_.push_back(
                    {c, flat.fanins(c)[pin], pin, randomBlock(), mask});
                break;
              }
              default: { // lane-masked stem injection
                const GateId g = pick(n, true);
                if (g != kNoGate)
                    sinj_.push_back({g, randomBlock(), randomBlock()});
                break;
              }
            }
        }
    }

    /** Seed @p s the way the simulators do and return the cone-walk
     *  frontier and seeds. */
    std::int64_t
    seed(sim::ReplayScratch &s, std::vector<GateId> &seeds) const
    {
        s.bump();
        seeds.clear();
        std::int64_t frontier = 0;
        for (const auto &[g, block] : pins_) {
            frontier += s.pin(g, block);
            seeds.push_back(g);
        }
        for (const GateId g : forces_) {
            s.force(g);
            seeds.push_back(g);
        }
        for (const GateId g : flips_) {
            s.force(g);
            const std::uint64_t *gd = good(g);
            std::uint64_t *fv = s.line(g);
            for (std::size_t w = 0; w < W_; ++w)
                fv[w] = ~gd[w];
            s.stamp(g);
            s.markConsumers(g);
            frontier += flat_.fanoutDegree(g);
            seeds.push_back(g);
        }
        for (const sim::detail::WideBranchInj &b : binj_)
            seeds.push_back(b.consumer);
        for (const sim::detail::WideStemInj &si : sinj_) {
            // Pre-seed the pinned lanes over the good block, stamped
            // only where that differs (sim/seq_batch_sim.cc).
            const std::uint64_t *gd = good(si.gate);
            std::uint64_t *fv = s.line(si.gate);
            for (std::size_t w = 0; w < W_; ++w)
                fv[w] = (gd[w] & ~si.mask[w]) | (si.value[w] & si.mask[w]);
            if (!std::equal(fv, fv + W_, gd)) {
                s.stamp(si.gate);
                s.markConsumers(si.gate);
                frontier += flat_.fanoutDegree(si.gate);
            }
            seeds.push_back(si.gate);
        }
        return frontier;
    }

    void
    replayEvents(sim::ReplayScratch &s) const
    {
        std::vector<GateId> seeds;
        seed(s, seeds);
        s.replayEvents(good_, binj_.data(), binj_.size(), sinj_.data(),
                       sinj_.size());
    }

    void
    replayWalk(sim::ReplayScratch &s, sim::FanoutCones &cones) const
    {
        std::vector<GateId> seeds;
        const std::int64_t frontier = seed(s, seeds);
        if (frontier == 0 && binj_.empty())
            return;
        int last_branch_pos = -1;
        for (const sim::detail::WideBranchInj &b : binj_)
            last_branch_pos =
                std::max(last_branch_pos, flat_.topoPos(b.consumer));
        const std::vector<GateId> work =
            cones.unionCone(seeds.data(), seeds.size());
        s.replay(good_, work.data(), work.size(), binj_.data(),
                 binj_.size(), sinj_.data(), sinj_.size(), last_branch_pos,
                 frontier);
    }

  private:
    const std::uint64_t *
    good(GateId g) const
    {
        return good_ + static_cast<std::size_t>(g) * W_;
    }

    /** An unused gate; with @p computed, one the replay recomputes
     *  (fan-in, no flip-flop). kNoGate after a few misses. */
    GateId
    pick(int n, bool computed)
    {
        for (int tries = 0; tries < 8; ++tries) {
            const auto g = static_cast<GateId>(
                rng_.below(static_cast<std::uint64_t>(n)));
            if (used_[static_cast<std::size_t>(g)] ||
                (computed && (flat_.arity(g) == 0 ||
                              flat_.kind(g) == GateKind::Dff)))
                continue;
            used_[static_cast<std::size_t>(g)] = 1;
            return g;
        }
        return kNoGate;
    }

    const std::uint64_t *
    randomBlock()
    {
        const std::size_t at = blocks_.size();
        for (std::size_t w = 0; w < W_; ++w)
            blocks_.push_back(rng_.next());
        return blocks_.data() + at;
    }

    const sim::FlatNetlist &flat_;
    const std::uint64_t *good_;
    std::size_t W_;
    util::Rng &rng_;
    std::vector<std::uint8_t> used_;
    std::vector<std::uint64_t> blocks_; ///< reserved: pointers stay valid
    std::vector<std::pair<GateId, const std::uint64_t *>> pins_;
    std::vector<GateId> forces_;
    std::vector<GateId> flips_;
    std::vector<sim::detail::WideBranchInj> binj_;
    std::vector<sim::detail::WideStemInj> sinj_;
};

void
checkCircuit(const std::string &file, std::uint64_t seed)
{
    SCOPED_TRACE(file);
    const Netlist net =
        ingest::hardenNetlist(ingest::importCircuit(circuitPath(file)).net)
            .net;
    const sim::FlatNetlist flat(net);
    const int n = flat.numGates();
    for (const int W : {1, 4, 8}) {
        for (const sim::SimdTarget target :
             {sim::SimdTarget::Portable, sim::SimdTarget::Auto}) {
            const sim::detail::WideKernels &k = sim::wideKernels(W, target);
            SCOPED_TRACE("W=" + std::to_string(W) + " " +
                         sim::simdTargetName(k.target));
            util::Rng rng(seed + static_cast<std::uint64_t>(W));
            const auto Ws = static_cast<std::size_t>(W);
            std::vector<std::uint64_t> in(
                static_cast<std::size_t>(flat.numInputs()) * Ws);
            std::vector<std::uint64_t> state(
                static_cast<std::size_t>(flat.numFlipFlops()) * Ws);
            sim::WordVec good(static_cast<std::size_t>(n) * Ws);
            sim::ReplayScratch events(flat, k), walk(flat, k);
            sim::FanoutCones cones(flat);
            for (int trial = 0; trial < 240; ++trial) {
                if (trial % 40 == 0) { // a fresh good machine now and then
                    for (auto &x : in)
                        x = rng.next();
                    for (auto &x : state)
                        x = rng.next();
                    k.evalLines(flat, in.data(), state.data(), -1, 0,
                                good.data());
                }
                const Trial t(flat, good.data(), W, rng);
                t.replayEvents(events);
                t.replayWalk(walk, cones);
                for (GateId g = 0; g < n; ++g) {
                    ASSERT_EQ(events.stamped(g), walk.stamped(g))
                        << "trial " << trial << " gate " << g;
                    const std::uint64_t *a = events.value(g, good.data());
                    const std::uint64_t *b = walk.value(g, good.data());
                    ASSERT_TRUE(std::equal(a, a + W, b))
                        << "trial " << trial << " gate " << g;
                }
            }
        }
    }
}

TEST(ReplayKernels, EventsMatchConeWalkHardenedC432)
{
    checkCircuit("c432.bench", 0xc432);
}

TEST(ReplayKernels, EventsMatchConeWalkHardenedS298)
{
    checkCircuit("s298.bench", 0x5298);
}

TEST(ReplayKernels, EventsMatchConeWalkHardenedS1488Class)
{
    checkCircuit("s1488-class.bench", 0x1488);
}

} // namespace
