/**
 * @file
 * Template bodies for the wide simulation kernels. This header is
 * included (no include guard, on purpose) by each ISA translation
 * unit with SCAL_WIDE_NS defined to a unique namespace name; the
 * AVX2/AVX-512 units include it inside a `#pragma GCC target` region
 * so the loops below -- and the force-inlined evalGateWords bodies
 * they call -- are compiled with that instruction set.
 *
 * The explicit instantiations at the bottom matter: GCC defers
 * implicit template instantiation to the end of the translation unit,
 * *after* `#pragma GCC pop_options`, which would silently drop the
 * target ISA. Instantiating explicitly inside the region pins the
 * code generation where the pragma is still active.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "netlist/netlist.hh"
#include "sim/flat.hh"
#include "sim/gate_eval.hh"
#include "sim/wide.hh"

#ifndef SCAL_WIDE_NS
#error "define SCAL_WIDE_NS before including sim/wide_impl.hh"
#endif

namespace scal::sim::detail
{
namespace SCAL_WIDE_NS
{

template <int W>
void
evalLinesImpl(const FlatNetlist &flat, const std::uint64_t *inputs,
              const std::uint64_t *dff_state, int phi_input,
              std::uint64_t phi_word, std::uint64_t *lines)
{
    using netlist::GateId;
    using netlist::GateKind;
    for (GateId g : flat.topoOrder()) {
        std::uint64_t *out = lines + static_cast<std::size_t>(g) * W;
        switch (flat.kind(g)) {
          case GateKind::Input: {
            const int idx = flat.inputIndex(g);
            if (idx == phi_input) {
                for (int w = 0; w < W; ++w)
                    out[w] = phi_word;
            } else {
                const std::uint64_t *src =
                    inputs + static_cast<std::size_t>(idx) * W;
                for (int w = 0; w < W; ++w)
                    out[w] = src[w];
            }
            break;
          }
          case GateKind::Dff: {
            const std::uint64_t *src =
                dff_state + static_cast<std::size_t>(flat.ffIndex(g)) * W;
            for (int w = 0; w < W; ++w)
                out[w] = src[w];
            break;
          }
          case GateKind::Const0:
            for (int w = 0; w < W; ++w)
                out[w] = 0;
            break;
          case GateKind::Const1:
            for (int w = 0; w < W; ++w)
                out[w] = kAllOnes;
            break;
          default: {
            const GateId *fi = flat.fanins(g);
            evalGateWords<W>(
                flat.kind(g),
                [&](int k) {
                    return lines + static_cast<std::size_t>(fi[k]) * W;
                },
                flat.arity(g), out);
            break;
          }
        }
    }
}

/**
 * Recompute non-source gate @p g of a replay into @p v: fan-ins read
 * faulty[] where stamped this epoch, good[] elsewhere. When
 * @p branch_target, the pins of @p binj aimed at g override their
 * inputs (a lane-masked pin mixes its value over the live driver
 * block); a non-null @p stem then repins its masked output lanes.
 * Returns whether @p v differs from g's good block. Both replay
 * kernels evaluate through this one body, so they agree gate for
 * gate.
 */
template <int W>
SCAL_SIM_ALWAYS_INLINE bool
replayGate(const FlatNetlist &flat, netlist::GateId g,
           const std::uint64_t *good, const std::uint64_t *faulty,
           const std::uint32_t *stamp, std::uint32_t epoch,
           bool branch_target, const WideBranchInj *binj, std::size_t nbinj,
           const WideStemInj *stem, const std::uint64_t **ptrs,
           std::uint64_t *v)
{
    using netlist::GateId;
    const GateId *fi = flat.fanins(g);
    const int a = flat.arity(g);
    if (branch_target) {
        // Scratch for lane-masked branch pins: one (live & ~mask) |
        // (value & mask) mix per injected pin. The fault-batch caller
        // merges injections per (consumer, pin), so a single gate sees
        // at most one entry per multiplexed lane group.
        constexpr int kMaxMix = static_cast<int>(kMaxLaneWords);
        std::uint64_t mix[kMaxMix][W];
        for (int k = 0; k < a; ++k) {
            const GateId d = fi[k];
            ptrs[k] = (stamp[d] == epoch ? faulty : good) +
                      static_cast<std::size_t>(d) * W;
        }
        int nmix = 0;
        for (std::size_t b = 0; b < nbinj; ++b) {
            const WideBranchInj &bi = binj[b];
            if (bi.consumer != g || bi.pin < 0 || bi.pin >= a ||
                fi[bi.pin] != bi.driver)
                continue;
            if (bi.mask == nullptr || nmix == kMaxMix) {
                ptrs[bi.pin] = bi.value;
            } else {
                std::uint64_t *m = mix[nmix++];
                const std::uint64_t *live = ptrs[bi.pin];
                for (int w = 0; w < W; ++w)
                    m[w] = (live[w] & ~bi.mask[w]) |
                           (bi.value[w] & bi.mask[w]);
                ptrs[bi.pin] = m;
            }
        }
        evalGateWords<W>(
            flat.kind(g), [&](int k) { return ptrs[k]; }, a, v);
    } else {
        evalGateWords<W>(
            flat.kind(g),
            [&](int k) {
                const GateId d = fi[k];
                return (stamp[d] == epoch ? faulty : good) +
                       static_cast<std::size_t>(d) * W;
            },
            a, v);
    }
    if (stem) {
        for (int w = 0; w < W; ++w)
            v[w] = (v[w] & ~stem->mask[w]) | (stem->value[w] & stem->mask[w]);
    }
    const std::uint64_t *gd = good + static_cast<std::size_t>(g) * W;
    bool diff = false;
    for (int w = 0; w < W; ++w)
        diff |= v[w] != gd[w];
    return diff;
}

/** The cone-walk oracle (WideKernels::replayCone). */
template <int W>
void
replayConeImpl(const FlatNetlist &flat, const std::uint64_t *good,
               std::uint64_t *faulty, std::uint32_t *stamp,
               const std::uint32_t *forced, std::uint32_t epoch,
               const netlist::GateId *work, std::size_t nwork,
               const WideBranchInj *binj, std::size_t nbinj,
               const WideStemInj *sinj, std::size_t nsinj,
               int last_branch_pos, std::int64_t frontier,
               const std::uint64_t **ptrs)
{
    using netlist::GateId;
    using netlist::GateKind;
    for (std::size_t idx = 0; idx < nwork; ++idx) {
        const GateId g = work[idx];
        // Flip-flop outputs are period-state sources: inside a replay
        // they only ever carry seeded values (forced stems, diverged
        // state), never recomputed ones, and their D input is not a
        // combinational fan-in edge of this period.
        if (flat.kind(g) == GateKind::Dff)
            continue;
        const GateId *fi = flat.fanins(g);
        const int a = flat.arity(g);
        int ndiff = 0;
        for (int k = 0; k < a; ++k) {
            if (stamp[fi[k]] == epoch)
                ++ndiff;
        }
        frontier -= ndiff;

        if (forced[g] != epoch) {
            bool is_branch_target = false;
            for (std::size_t b = 0; b < nbinj; ++b) {
                if (binj[b].consumer == g)
                    is_branch_target = true;
            }
            const WideStemInj *stem = nullptr;
            for (std::size_t s = 0; s < nsinj; ++s) {
                if (sinj[s].gate == g)
                    stem = &sinj[s];
            }
            if (ndiff != 0 || is_branch_target || stem) {
                std::uint64_t v[W];
                if (replayGate<W>(flat, g, good, faulty, stamp, epoch,
                                  is_branch_target, binj, nbinj, stem,
                                  ptrs, v)) {
                    std::uint64_t *fv =
                        faulty + static_cast<std::size_t>(g) * W;
                    for (int w = 0; w < W; ++w)
                        fv[w] = v[w];
                    if (stamp[g] != epoch) {
                        stamp[g] = epoch;
                        frontier += flat.fanoutDegree(g);
                    }
                }
            }
        }
        if (frontier == 0 && flat.topoPos(g) >= last_branch_pos)
            break;
    }
}

/** The event-driven replay (WideKernels::replayEvents). */
template <int W>
void
replayEventsImpl(const FlatNetlist &flat, const std::uint64_t *good,
                 std::uint64_t *faulty, std::uint32_t *stamp,
                 const std::uint32_t *forced, const std::uint32_t *flagged,
                 std::uint32_t epoch, std::uint64_t *pending, std::size_t lo,
                 std::size_t hi, const WideBranchInj *binj,
                 std::size_t nbinj, const WideStemInj *sinj,
                 std::size_t nsinj, const std::uint64_t **ptrs)
{
    using netlist::GateId;
    const GateId *order = flat.levelOrder().data();
    const std::uint64_t *starts = flat.levelStarts();
    // Every consumer sits on a higher level than its driver, so marks
    // only ever land past the end of the level being popped: one
    // ascending pass over the words sees each pending gate after all
    // of its fan-ins have settled. The same fact makes every pending
    // bit of the lowest pending level ready at once, so a whole run
    // of them is decoded without waiting on the marks its own
    // evaluations make. Marks into the word being popped stay in a
    // register.
    for (std::size_t wi = lo; wi < hi; ++wi) {
        const std::size_t base = wi * 64;
        std::uint64_t bits = pending[wi];
        pending[wi] = 0;
        while (bits != 0) {
            auto b = static_cast<std::size_t>(__builtin_ctzll(bits));
            // The run: pending bits from b up to the next level start
            // (all of them when no level starts later in the word).
            const std::uint64_t later = starts[wi] & (~std::uint64_t{1} << b);
            std::uint64_t run = bits & ((later & (~later + 1)) - 1);
            bits &= ~run;
            for (;;) {
                const std::size_t pos = base + b;
                const GateId g = order[pos];
                run &= run - 1;
                // Only injection targets and consumers of changed
                // lines are ever marked, so no flip-flop (a state
                // source, never a combinational consumer) gets here
                // unforced; an unflagged gate is a plain recompute.
                bool live = true;
                bool is_branch_target = false;
                const WideStemInj *stem = nullptr;
                if (flagged[g] == epoch) {
                    live = forced[g] != epoch;
                    for (std::size_t k = 0; k < nbinj; ++k) {
                        if (binj[k].consumer == g)
                            is_branch_target = true;
                    }
                    for (std::size_t k = 0; k < nsinj; ++k) {
                        if (sinj[k].gate == g)
                            stem = &sinj[k];
                    }
                }
                std::uint64_t v[W];
                if (live && replayGate<W>(flat, g, good, faulty, stamp,
                                          epoch, is_branch_target, binj,
                                          nbinj, stem, ptrs, v)) {
                    std::uint64_t *fv =
                        faulty + static_cast<std::size_t>(g) * W;
                    for (int w = 0; w < W; ++w)
                        fv[w] = v[w];
                    stamp[g] = epoch;
                    const int ip = static_cast<int>(pos);
                    const std::int32_t *cp = flat.consumersAt(ip);
                    for (int k = 0, nc = flat.fanoutAt(ip); k < nc; ++k) {
                        const auto p = static_cast<std::size_t>(cp[k]);
                        const std::uint64_t bit = std::uint64_t{1}
                                                  << (p % 64);
                        if (p / 64 == wi) {
                            bits |= bit;
                        } else {
                            pending[p / 64] |= bit;
                            hi = std::max(hi, p / 64 + 1);
                        }
                    }
                }
                if (run == 0)
                    break;
                b = static_cast<std::size_t>(__builtin_ctzll(run));
            }
        }
    }
}

template <int W>
void
assembleOutputsImpl(const FlatNetlist &flat, const std::uint64_t *good,
                    const std::uint64_t *faulty, const std::uint32_t *stamp,
                    std::uint32_t epoch, std::uint64_t *out)
{
    const int no = flat.numOutputs();
    for (int j = 0; j < no; ++j) {
        const netlist::GateId g = flat.output(j);
        const std::uint64_t *src = (stamp[g] == epoch ? faulty : good) +
                                   static_cast<std::size_t>(g) * W;
        std::uint64_t *dst = out + static_cast<std::size_t>(j) * W;
        for (int w = 0; w < W; ++w)
            dst[w] = src[w];
    }
}

template <int W>
void
foldAlternatingImpl(int num_outputs, const std::uint64_t *f1,
                    const std::uint64_t *f2, const std::uint64_t *good,
                    WideMasks *m)
{
    for (int j = 0; j < num_outputs; ++j) {
        const std::uint64_t *a = f1 + static_cast<std::size_t>(j) * W;
        const std::uint64_t *b = f2 + static_cast<std::size_t>(j) * W;
        const std::uint64_t *g = good + static_cast<std::size_t>(j) * W;
        for (int w = 0; w < W; ++w) {
            const std::uint64_t err1 = a[w] ^ g[w];
            const std::uint64_t err2 = b[w] ^ ~g[w];
            m->anyErr[static_cast<std::size_t>(w)] |= err1 | err2;
            m->nonAlt[static_cast<std::size_t>(w)] |= ~(a[w] ^ b[w]);
            m->incorrect[static_cast<std::size_t>(w)] |= err1 & err2;
        }
    }
}

template <int W>
std::uint64_t
diffOrImpl(const std::uint64_t *a, const std::uint64_t *b,
           std::size_t nwords)
{
    std::uint64_t d = 0;
    for (std::size_t i = 0; i < nwords; ++i)
        d |= a[i] ^ b[i];
    return d;
}

template <int W>
void
seqAlarmWrongImpl(const std::uint64_t *p0, const std::uint64_t *p1,
                  const std::uint64_t *good0, const int *alt, int nalt,
                  const int *pairs, int npairs, const int *data, int ndata,
                  std::uint64_t *alarm, std::uint64_t *wrong)
{
    std::uint64_t a[W], wr[W];
    for (int w = 0; w < W; ++w)
        a[w] = wr[w] = 0;
    for (int k = 0; k < nalt; ++k) {
        const std::size_t j = static_cast<std::size_t>(alt[k]) * W;
        for (int w = 0; w < W; ++w)
            a[w] |= ~(p0[j + w] ^ p1[j + w]);
    }
    for (int k = 0; k < npairs; ++k) {
        const std::size_t p = static_cast<std::size_t>(pairs[2 * k]) * W;
        const std::size_t q =
            static_cast<std::size_t>(pairs[2 * k + 1]) * W;
        for (int w = 0; w < W; ++w) {
            a[w] |= ~(p0[p + w] ^ p0[q + w]);
            a[w] |= ~(p1[p + w] ^ p1[q + w]);
        }
    }
    for (int k = 0; k < ndata; ++k) {
        const std::size_t j = static_cast<std::size_t>(data[k]) * W;
        for (int w = 0; w < W; ++w)
            wr[w] |= p0[j + w] ^ good0[j + w];
    }
    for (int w = 0; w < W; ++w) {
        alarm[w] = a[w];
        wrong[w] = wr[w];
    }
}

template <int W>
int
latchAndTrackImpl(const FlatNetlist &flat, const std::uint8_t *elig,
                  const std::uint64_t *good_lines,
                  const std::uint64_t *faulty, const std::uint32_t *stamp,
                  std::uint32_t epoch, int branch_ff,
                  const std::uint64_t *branch_value,
                  std::uint64_t *faulty_state,
                  const std::uint64_t *good_next,
                  std::int32_t *diverged_out)
{
    const int nff = flat.numFlipFlops();
    int ndiv = 0;
    for (int i = 0; i < nff; ++i) {
        std::uint64_t *fs = faulty_state + static_cast<std::size_t>(i) * W;
        if (elig[i]) {
            const netlist::GateId d = flat.ffDriver(i);
            const std::uint64_t *src =
                (stamp[d] == epoch ? faulty : good_lines) +
                static_cast<std::size_t>(d) * W;
            if (i == branch_ff)
                src = branch_value;
            for (int w = 0; w < W; ++w)
                fs[w] = src[w];
        }
        const std::uint64_t *gn =
            good_next + static_cast<std::size_t>(i) * W;
        bool diff = false;
        for (int w = 0; w < W; ++w)
            diff |= fs[w] != gn[w];
        if (diff)
            diverged_out[ndiv++] = static_cast<std::int32_t>(i);
    }
    return ndiv;
}

// Pin code generation inside the active target region (see the file
// comment). One set per supported width.
#define SCAL_WIDE_INSTANTIATE(W)                                            \
    template void evalLinesImpl<W>(                                         \
        const FlatNetlist &, const std::uint64_t *, const std::uint64_t *,  \
        int, std::uint64_t, std::uint64_t *);                               \
    template void replayConeImpl<W>(                                        \
        const FlatNetlist &, const std::uint64_t *, std::uint64_t *,        \
        std::uint32_t *, const std::uint32_t *, std::uint32_t,              \
        const netlist::GateId *, std::size_t, const WideBranchInj *,        \
        std::size_t, const WideStemInj *, std::size_t, int, std::int64_t,   \
        const std::uint64_t **);                                            \
    template void replayEventsImpl<W>(                                      \
        const FlatNetlist &, const std::uint64_t *, std::uint64_t *,        \
        std::uint32_t *, const std::uint32_t *, const std::uint32_t *,      \
        std::uint32_t, std::uint64_t *, std::size_t, std::size_t,           \
        const WideBranchInj *, std::size_t, const WideStemInj *,            \
        std::size_t, const std::uint64_t **);                               \
    template void assembleOutputsImpl<W>(                                   \
        const FlatNetlist &, const std::uint64_t *, const std::uint64_t *,  \
        const std::uint32_t *, std::uint32_t, std::uint64_t *);             \
    template void foldAlternatingImpl<W>(                                   \
        int, const std::uint64_t *, const std::uint64_t *,                  \
        const std::uint64_t *, WideMasks *);                                \
    template std::uint64_t diffOrImpl<W>(                                   \
        const std::uint64_t *, const std::uint64_t *, std::size_t);         \
    template void seqAlarmWrongImpl<W>(                                     \
        const std::uint64_t *, const std::uint64_t *,                       \
        const std::uint64_t *, const int *, int, const int *, int,          \
        const int *, int, std::uint64_t *, std::uint64_t *);                \
    template int latchAndTrackImpl<W>(                                      \
        const FlatNetlist &, const std::uint8_t *, const std::uint64_t *,   \
        const std::uint64_t *, const std::uint32_t *, std::uint32_t, int,   \
        const std::uint64_t *, std::uint64_t *, const std::uint64_t *,      \
        std::int32_t *);

SCAL_WIDE_INSTANTIATE(1)
SCAL_WIDE_INSTANTIATE(4)
SCAL_WIDE_INSTANTIATE(8)

#undef SCAL_WIDE_INSTANTIATE

/** Assemble the dispatch table for width W (no codegen of its own:
 *  the function bodies were instantiated above). */
template <int W>
WideKernels
makeKernels(SimdTarget target)
{
    WideKernels k;
    k.laneWords = W;
    k.target = target;
    k.evalLines = &evalLinesImpl<W>;
    k.replayCone = &replayConeImpl<W>;
    k.replayEvents = &replayEventsImpl<W>;
    k.assembleOutputs = &assembleOutputsImpl<W>;
    k.foldAlternating = &foldAlternatingImpl<W>;
    k.diffOr = &diffOrImpl<W>;
    k.seqAlarmWrong = &seqAlarmWrongImpl<W>;
    k.latchAndTrack = &latchAndTrackImpl<W>;
    return k;
}

} // namespace SCAL_WIDE_NS
} // namespace scal::sim::detail
