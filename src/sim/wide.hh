/**
 * @file
 * Width-generic (W words per line) simulation kernels with runtime
 * SIMD dispatch. One logical kernel set exists in up to three builds
 * -- portable, AVX2, AVX-512 -- each compiled in its own translation
 * unit (sim/wide_portable.cc / wide_avx2.cc / wide_avx512.cc) from
 * the shared template body in sim/wide_impl.hh. wideKernels() picks a
 * build at runtime via sim/simd.hh policy; every build is
 * bit-identical, so dispatch is purely a performance knob.
 *
 * Layout convention everywhere: a buffer of N lines at width W is
 * N * W uint64 words, line i occupying words [i*W, i*W+W); lane l of
 * the block lives at bit (l % 64) of word (l / 64).
 */

#ifndef SCAL_SIM_WIDE_HH
#define SCAL_SIM_WIDE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/flat.hh"
#include "sim/simd.hh"
#include "util/aligned.hh"

namespace scal::sim
{

/** Widest supported lane block: 8 words = 512 lanes. */
inline constexpr int kMaxLaneWords = 8;

/** 64-byte-aligned arena for line/lane-block storage. */
using WordVec = std::vector<std::uint64_t,
                            util::AlignedAllocator<std::uint64_t, 64>>;

/**
 * AlternatingMasks generalized to W words (see sim/fault_sim.hh for
 * the single-word semantics). Words beyond the active width are 0.
 */
struct WideMasks
{
    std::array<std::uint64_t, kMaxLaneWords> anyErr{};
    std::array<std::uint64_t, kMaxLaneWords> nonAlt{};
    std::array<std::uint64_t, kMaxLaneWords> incorrect{};

    std::uint64_t
    unsafeWord(int w) const
    {
        return incorrect[static_cast<std::size_t>(w)] &
               ~nonAlt[static_cast<std::size_t>(w)];
    }
};

namespace detail
{

/** Broadcast stuck-at constants usable as W-word value blocks. */
alignas(64) inline constexpr std::array<std::uint64_t, kMaxLaneWords>
    kOnesGroup = {~std::uint64_t{0}, ~std::uint64_t{0}, ~std::uint64_t{0},
                  ~std::uint64_t{0}, ~std::uint64_t{0}, ~std::uint64_t{0},
                  ~std::uint64_t{0}, ~std::uint64_t{0}};
alignas(64) inline constexpr std::array<std::uint64_t, kMaxLaneWords>
    kZeroGroup = {};

/** Branch fault to apply while replaying: consumer reads @p value
 *  (a W-word block) instead of @p driver on pin @p pin. When
 *  @p mask is null the whole block is overridden; otherwise only
 *  the lanes set in @p mask read @p value and the rest read the
 *  live (faulty-where-stamped) driver line. */
struct WideBranchInj
{
    netlist::GateId consumer = -1;
    netlist::GateId driver = -1;
    int pin = -1;
    const std::uint64_t *value = nullptr;
    const std::uint64_t *mask = nullptr;
};

/** Stem fault to apply while replaying: after @p gate is recomputed
 *  its output lanes set in @p mask are overwritten with @p value.
 *  Unlike a caller-forced line the unmasked lanes stay live, so
 *  other faults' divergence propagates through the pinned gate. */
struct WideStemInj
{
    netlist::GateId gate = -1;
    const std::uint64_t *value = nullptr;
    const std::uint64_t *mask = nullptr;
};

/**
 * Kernel entry points for one (laneWords, target) combination. All
 * pointers are into W-word-per-line buffers as described above.
 */
struct WideKernels
{
    int laneWords = 1;
    SimdTarget target = SimdTarget::Portable;

    /** Fault-free topological evaluation of all lines. @p inputs is
     *  numInputs()*W words; @p dff_state numFlipFlops()*W (may be
     *  null when the netlist has no flip-flops). Input @p phi_input
     *  (if >= 0) reads the broadcast @p phi_word instead. */
    void (*evalLines)(const FlatNetlist &flat, const std::uint64_t *inputs,
                      const std::uint64_t *dff_state, int phi_input,
                      std::uint64_t phi_word, std::uint64_t *lines);

    /** Cone-walk replay over the topologically-sorted worklist
     *  @p work: the oracle replayEvents is checked against.
     *  Recomputes gates whose fan-ins are stamped (stamp[g]==epoch
     *  means faulty[g*W..] is live), applies branch injections,
     *  maintains the divergence frontier and exits early once it
     *  drains past @p last_branch_pos. @p ptr_scratch must hold at
     *  least maxArity pointers. Gates forced by the caller
     *  (forced[g]==epoch) and flip-flop state sources are skipped. */
    void (*replayCone)(const FlatNetlist &flat, const std::uint64_t *good,
                       std::uint64_t *faulty, std::uint32_t *stamp,
                       const std::uint32_t *forced, std::uint32_t epoch,
                       const netlist::GateId *work, std::size_t nwork,
                       const WideBranchInj *binj, std::size_t nbinj,
                       const WideStemInj *sinj, std::size_t nsinj,
                       int last_branch_pos, std::int64_t frontier,
                       const std::uint64_t **ptr_scratch);

    /** Event-driven replay: the production kernel. @p pending is a
     *  bitset over FlatNetlist::levelOrder() positions whose set
     *  bits, all inside words [@p lo, @p hi), are the gates to
     *  recompute; the kernel pops them in ascending order, evaluates
     *  each exactly as replayCone does, and marks a gate's consumers
     *  whenever its value differs from good. It returns with
     *  @p pending all clear. Only gates with flagged[g]==epoch can be
     *  forced (skipped) or carry a branch or stem injection; every
     *  other popped gate is a plain recompute. */
    void (*replayEvents)(const FlatNetlist &flat, const std::uint64_t *good,
                         std::uint64_t *faulty, std::uint32_t *stamp,
                         const std::uint32_t *forced,
                         const std::uint32_t *flagged, std::uint32_t epoch,
                         std::uint64_t *pending, std::size_t lo,
                         std::size_t hi, const WideBranchInj *binj,
                         std::size_t nbinj, const WideStemInj *sinj,
                         std::size_t nsinj,
                         const std::uint64_t **ptr_scratch);

    /** Gather output blocks, reading faulty[] where stamped. */
    void (*assembleOutputs)(const FlatNetlist &flat,
                            const std::uint64_t *good,
                            const std::uint64_t *faulty,
                            const std::uint32_t *stamp, std::uint32_t epoch,
                            std::uint64_t *out);

    /** Fold one (phase-1, phase-2) faulty output pair against the
     *  phase-1 good outputs into the alternating-logic masks. */
    void (*foldAlternating)(int num_outputs, const std::uint64_t *f1,
                            const std::uint64_t *f2,
                            const std::uint64_t *good, WideMasks *m);

    /** OR of (a[i] ^ b[i]) over @p nwords words. */
    std::uint64_t (*diffOr)(const std::uint64_t *a, const std::uint64_t *b,
                            std::size_t nwords);

    /** Fold one symbol's alarm and wrong-data words from its two
     *  output-block rows @p p0 / @p p1 (num-outputs lines of W words
     *  each) against the fault-free phase-0 row @p good0. Alarm lanes
     *  are those where an @p alt output fails to alternate between
     *  the phases, or either phase agrees across an output pair from
     *  @p pairs (2*@p npairs indices); wrong lanes are those where a
     *  @p data output differs from the fault-free value. */
    void (*seqAlarmWrong)(const std::uint64_t *p0, const std::uint64_t *p1,
                          const std::uint64_t *good0, const int *alt,
                          int nalt, const int *pairs, int npairs,
                          const int *data, int ndata, std::uint64_t *alarm,
                          std::uint64_t *wrong);

    /** Latch faulty next-state: for each flip-flop i with elig[i],
     *  capture its D driver (faulty[] where stamped, @p branch_value
     *  for @p branch_ff); then compare against @p good_next and
     *  append diverged flip-flop indices to @p diverged_out,
     *  returning the count. */
    int (*latchAndTrack)(const FlatNetlist &flat, const std::uint8_t *elig,
                         const std::uint64_t *good_lines,
                         const std::uint64_t *faulty,
                         const std::uint32_t *stamp, std::uint32_t epoch,
                         int branch_ff, const std::uint64_t *branch_value,
                         std::uint64_t *faulty_state,
                         const std::uint64_t *good_next,
                         std::int32_t *diverged_out);
};

/** Per-build tables; null when lane_words is unsupported or the
 *  build is compiled out (non-x86, missing compiler support). */
const WideKernels *widePortableKernels(int lane_words);
const WideKernels *wideAvx2Kernels(int lane_words);
const WideKernels *wideAvx512Kernels(int lane_words);

} // namespace detail

/**
 * Resolve (lane_words, target) to a kernel table. @p target follows
 * resolveSimdTarget() policy and falls back toward portable if the
 * requested build was compiled out. Throws std::invalid_argument
 * unless lane_words is 1, 4 or 8.
 */
const detail::WideKernels &wideKernels(int lane_words,
                                       SimdTarget target = SimdTarget::Auto);

} // namespace scal::sim

#endif // SCAL_SIM_WIDE_HH
