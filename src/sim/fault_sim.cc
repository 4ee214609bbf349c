#include "sim/fault_sim.hh"

#include <algorithm>
#include <stdexcept>

namespace scal::sim
{

using namespace netlist;

FaultSimulator::FaultSimulator(const FlatNetlist &flat, int lane_words,
                               SimdTarget simd)
    : flat_(flat), kernels_(&wideKernels(lane_words, simd)),
      laneWords_(lane_words), cones_(flat), scratch_(flat, *kernels_)
{
    const std::size_t n = static_cast<std::size_t>(flat_.numGates());
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    const std::size_t no = static_cast<std::size_t>(flat_.numOutputs());
    for (int s = 0; s < 2; ++s) {
        goodLines_[s].assign(n * W, 0);
        goodOut_[s].assign(no * W, 0);
        outBuf_[s].assign(no * W, 0);
    }
    inbarScratch_.assign(static_cast<std::size_t>(flat_.numInputs()) * W, 0);
}

void
FaultSimulator::evalGood(int phase, const std::uint64_t *inputs,
                         const std::uint64_t *dff_state)
{
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    std::uint64_t *lines = goodLines_[phase].data();
    kernels_->evalLines(flat_, inputs, dff_state, /*phi_input=*/-1,
                        /*phi_word=*/0, lines);
    for (int j = 0; j < flat_.numOutputs(); ++j) {
        const std::uint64_t *src =
            lines + static_cast<std::size_t>(flat_.output(j)) * W;
        std::uint64_t *dst =
            goodOut_[phase].data() + static_cast<std::size_t>(j) * W;
        for (std::size_t w = 0; w < W; ++w)
            dst[w] = src[w];
    }
}

void
FaultSimulator::setBaseline(const std::vector<std::uint64_t> &inputs,
                            const std::vector<std::uint64_t> *dff_state)
{
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    if (inputs.size() != static_cast<std::size_t>(flat_.numInputs()) * W)
        throw std::invalid_argument("input vector size mismatch");
    if (flat_.numFlipFlops() > 0 &&
        (!dff_state ||
         dff_state->size() !=
             static_cast<std::size_t>(flat_.numFlipFlops()) * W)) {
        throw std::invalid_argument("missing flip-flop state");
    }
    evalGood(0, inputs.data(), dff_state ? dff_state->data() : nullptr);
}

void
FaultSimulator::setAlternatingBlock(const std::vector<std::uint64_t> &inputs)
{
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    if (inputs.size() != static_cast<std::size_t>(flat_.numInputs()) * W)
        throw std::invalid_argument("input vector size mismatch");
    if (flat_.numFlipFlops() > 0)
        throw std::invalid_argument(
            "alternating block needs a combinational netlist");
    evalGood(0, inputs.data(), nullptr);
    for (std::size_t i = 0; i < inputs.size(); ++i)
        inbarScratch_[i] = ~inputs[i];
    evalGood(1, inbarScratch_.data(), nullptr);
}

FaultSimulator::InjectPrep
FaultSimulator::prepareInjections(int phase, const Fault *faults,
                                  std::size_t num_faults)
{
    scratch_.bump();
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    const std::uint64_t *good = goodLines_[phase].data();

    // Sort injections: stems force their line now, branch faults are
    // applied while their consuming gate recomputes, output taps at
    // output assembly. Stuck-at values are broadcast blocks, so the
    // injections reference the shared constant groups.
    branchInj_.clear();
    tapInj_.clear();
    seeds_.clear();
    InjectPrep prep;
    for (std::size_t k = 0; k < num_faults; ++k) {
        const Fault &f = faults[k];
        const std::uint64_t *vg = f.value ? detail::kOnesGroup.data()
                                          : detail::kZeroGroup.data();
        if (f.site.isStem()) {
            const GateId g = f.site.driver;
            const std::uint64_t *gd = good + static_cast<std::size_t>(g) * W;
            if (std::equal(gd, gd + W, vg))
                scratch_.force(g);
            else
                prep.frontier += scratch_.pin(g, vg);
            seeds_.push_back(g);
        } else if (f.site.consumer == FaultSite::kOutputTap) {
            tapInj_.push_back({f.site.pin, f.site.driver, vg});
        } else if (flat_.kind(f.site.consumer) != GateKind::Dff) {
            // A Dff's D-pin branch fault has no combinational effect
            // this period (the Dff output comes from the state
            // vector), matching the reference evaluators.
            branchInj_.push_back(
                {f.site.consumer, f.site.driver, f.site.pin, vg});
            prep.lastBranchPos = std::max(
                prep.lastBranchPos, flat_.topoPos(f.site.consumer));
            seeds_.push_back(f.site.consumer);
        }
    }
    return prep;
}

void
FaultSimulator::replayAndAssemble(int phase, const InjectPrep &prep,
                                  const GateId *work, std::size_t num_work)
{
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    const std::uint64_t *good = goodLines_[phase].data();

    if (prep.frontier != 0 || !branchInj_.empty())
        scratch_.replay(good, work, num_work, branchInj_.data(),
                        branchInj_.size(), nullptr, 0, prep.lastBranchPos,
                        prep.frontier);

    // Output assembly (with output-tap overrides, reference order).
    std::uint64_t *out = outBuf_[phase].data();
    scratch_.assemble(good, out);
    for (const TapInjection &t : tapInj_) {
        if (t.outputIdx >= 0 && t.outputIdx < flat_.numOutputs() &&
            flat_.output(t.outputIdx) == t.driver) {
            std::uint64_t *dst =
                out + static_cast<std::size_t>(t.outputIdx) * W;
            for (std::size_t w = 0; w < W; ++w)
                dst[w] = t.value[w];
        }
    }
}

const std::vector<std::uint64_t> &
FaultSimulator::faultOutputsOver(const Fault *faults,
                                 std::size_t num_faults, const GateId *work,
                                 std::size_t num_work, int phase)
{
    const InjectPrep prep = prepareInjections(phase, faults, num_faults);
    replayAndAssemble(phase, prep, work, num_work);
    return outBuf_[phase];
}

void
FaultSimulator::replayFlips(const GateId *lines, std::size_t num_lines,
                            const GateId *work, std::size_t num_work,
                            int phase)
{
    scratch_.bump();
    const std::size_t W = static_cast<std::size_t>(laneWords_);
    const std::uint64_t *good = goodLines_[phase].data();
    std::int64_t frontier = 0;
    for (std::size_t k = 0; k < num_lines; ++k) {
        const GateId g = lines[k];
        scratch_.force(g);
        const std::uint64_t *gd = good + static_cast<std::size_t>(g) * W;
        std::uint64_t *fv = scratch_.line(g);
        for (std::size_t w = 0; w < W; ++w)
            fv[w] = ~gd[w];
        scratch_.stamp(g);
        frontier += flat_.fanoutDegree(g);
    }
    if (frontier != 0)
        scratch_.replay(good, work, num_work, nullptr, 0, nullptr, 0, -1,
                        frontier);
}

void
FaultSimulator::simulate(int phase, const Fault *faults,
                         std::size_t num_faults)
{
    const InjectPrep prep = prepareInjections(phase, faults, num_faults);

    // Worklist: the memoized cone for a single seed, the sorted union
    // of cones otherwise.
    const std::vector<GateId> *work = nullptr;
    if (prep.frontier != 0 || !branchInj_.empty()) {
        const bool one_seed =
            std::all_of(seeds_.begin(), seeds_.end(),
                        [this](GateId g) { return g == seeds_[0]; });
        work = one_seed ? &cones_.cone(seeds_[0])
                        : &cones_.unionCone(seeds_.data(), seeds_.size());
    }

    replayAndAssemble(phase, prep, work ? work->data() : nullptr,
                      work ? work->size() : 0);
}

AlternatingMasks
FaultSimulator::classifyAlternating(const Fault *faults,
                                    std::size_t num_faults)
{
    if (laneWords_ != 1)
        throw std::logic_error(
            "classifyAlternating needs lane_words == 1; "
            "use classifyAlternatingWide");
    const WideMasks m = classifyAlternatingWide(faults, num_faults);
    return AlternatingMasks{m.anyErr[0], m.nonAlt[0], m.incorrect[0]};
}

WideMasks
FaultSimulator::classifyAlternatingWide(const Fault *faults,
                                        std::size_t num_faults)
{
    simulate(0, faults, num_faults);
    simulate(1, faults, num_faults);
    WideMasks m;
    kernels_->foldAlternating(flat_.numOutputs(), outBuf_[0].data(),
                              outBuf_[1].data(), goodOut_[0].data(), &m);
    return m;
}

} // namespace scal::sim
