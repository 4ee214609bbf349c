/**
 * @file
 * Fault-simulation kernel benchmark, three generations of the
 * campaign inner loop on identical pattern blocks:
 *
 *  - `ref`: the pre-change reference (PackedEvaluator full
 *    resimulation per fault per 64-lane block),
 *  - `cone`: the cone-restricted FaultSimulator on its cone-walk
 *    oracle kernel (ReplayKernel::ConeWalk), one replay per fault, at
 *    64/256/512 lanes — the fixed reference every gated ratio divides,
 *  - `events`: the same per-fault loop on the event-driven replay
 *    kernel the campaigns run,
 *  - `fp`: the fault-parallel path (FaultBatchPlan + BatchClassifier:
 *    dominance pruning, disjoint-cone batching, flip passes and
 *    critical-path tracing) at the same widths.
 *
 * Scenarios cover the paper's built-in circuits plus the bundled
 * `-class` netlists (c432/c880/c1908) run through the real
 * import-and-harden pipeline. Verdict mask digests are cross-checked
 * between all kernels, lane widths and dispatch targets before any
 * timing; the full resimulation reference is skipped on the hardened
 * circuits where it would take minutes per repetition (`cone` is the
 * oracle there — itself digest-checked against `ref` on every
 * scenario that affords it). Results are emitted as machine-readable
 * JSON (stdout and a file) so CI can archive the numbers. Every
 * timing is a warmed-up best/median/stddev over --reps repetitions,
 * and the sections of one width run interleaved (bench_stats.hh
 * Interleaved): each gated ratio is the median of per-round ratios,
 * reported with its interquartile range.
 *
 * Usage: bench_fault_sim [--circuits DIR] [--max-patterns N]
 *                        [--reps N] [--out FILE]
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_stats.hh"
#include "fault/collapse.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/circuits.hh"
#include "sim/batch_sim.hh"
#include "sim/fault_sim.hh"
#include "sim/flat.hh"
#include "sim/packed.hh"
#include "sim/simd.hh"
#include "system/alu.hh"
#include "util/rng.hh"

using namespace scal;
using netlist::Fault;
using netlist::Netlist;

namespace
{

struct Scenario
{
    std::string name;
    Netlist net;
    /** Full-resimulation reference is affordable (small circuits
     *  only; on the hardened bundled netlists it would take minutes
     *  per repetition). */
    bool withRef = true;
};

/** One packed input block of 64 * laneWords lanes (campaign layout:
 *  input i at words [i*W, i*W+W), lane l at bit l%64 of word l/64). */
struct WideBlock
{
    std::vector<std::uint64_t> in;
    int lanes = 0;

    std::uint64_t
    laneMask(int word) const
    {
        const int rem = lanes - 64 * word;
        if (rem <= 0)
            return 0;
        if (rem >= 64)
            return ~std::uint64_t{0};
        return (std::uint64_t{1} << rem) - 1;
    }
};

/** Packed input blocks, exhaustive or seeded-sampled. The pattern
 *  stream is identical at every width (ascending order, one Rng draw
 *  per sampled pattern), so verdict digests are width-invariant. */
std::vector<WideBlock>
buildBlocks(int ni, std::uint64_t max_patterns, int lane_words,
            std::uint64_t &applied)
{
    const bool exhaustive =
        ni < 63 && (std::uint64_t{1} << ni) <= max_patterns;
    applied = exhaustive ? (std::uint64_t{1} << ni) : max_patterns;
    const std::uint64_t block_lanes =
        static_cast<std::uint64_t>(64) * lane_words;
    util::Rng rng(1);
    std::vector<WideBlock> blocks;
    for (std::uint64_t base = 0; base < applied; base += block_lanes) {
        WideBlock blk;
        blk.lanes = static_cast<int>(
            std::min<std::uint64_t>(block_lanes, applied - base));
        blk.in.assign(static_cast<std::size_t>(ni) * lane_words, 0);
        for (int l = 0; l < blk.lanes; ++l) {
            const std::uint64_t pat = exhaustive ? base + l : rng.next();
            const std::size_t word = static_cast<std::size_t>(l) / 64;
            const std::uint64_t bit = std::uint64_t{1} << (l % 64);
            for (int i = 0; i < ni; ++i)
                if ((pat >> i) & 1)
                    blk.in[static_cast<std::size_t>(i) * lane_words +
                           word] |= bit;
        }
        blocks.push_back(std::move(blk));
    }
    return blocks;
}

/** Fold one fault's per-output words into the alternating masks,
 *  restricted to the @p lane_mask of populated lanes (padding lanes
 *  in a partial final block must not contribute to the digest). */
void
foldMasks(const std::vector<std::uint64_t> &f1,
          const std::vector<std::uint64_t> &f2,
          const std::vector<std::uint64_t> &good, std::uint64_t lane_mask,
          sim::AlternatingMasks &m)
{
    for (std::size_t j = 0; j < f1.size(); ++j) {
        const std::uint64_t err1 = f1[j] ^ good[j];
        const std::uint64_t err2 = f2[j] ^ ~good[j];
        m.anyErr |= (err1 | err2) & lane_mask;
        m.nonAlt |= ~(f1[j] ^ f2[j]) & lane_mask;
        m.incorrect |= err1 & err2 & lane_mask;
    }
}

/** Digest of all verdict masks, for kernel cross-checking. */
std::uint64_t
maskDigest(const std::vector<sim::AlternatingMasks> &verdict)
{
    std::uint64_t digest = 0;
    for (const auto &m : verdict) {
        digest ^= m.anyErr * 0x9e3779b97f4a7c15ULL;
        digest ^= m.nonAlt * 0xc2b2ae3d27d4eb4fULL;
        digest ^= m.incorrect * 0x165667b19e3779f9ULL;
        digest = (digest << 7) | (digest >> 57);
    }
    return digest;
}

/** The campaign inner loop as it was before the cone kernel: full
 *  packed resimulation of the whole netlist, twice per fault per
 *  64-lane block. Returns a digest of all verdict masks. */
std::uint64_t
runReferenceKernel(const Netlist &net, const std::vector<Fault> &faults,
                   const std::vector<WideBlock> &blocks)
{
    const sim::PackedEvaluator pe(net);
    std::vector<sim::AlternatingMasks> verdict(faults.size());
    for (const WideBlock &blk : blocks) {
        const auto &in = blk.in; // one word per input at lane_words == 1
        std::vector<std::uint64_t> inbar(in.size());
        for (std::size_t i = 0; i < in.size(); ++i)
            inbar[i] = ~in[i];
        const auto good = pe.evalOutputs(in);
        for (std::size_t k = 0; k < faults.size(); ++k) {
            const auto f1 = pe.evalOutputs(in, &faults[k]);
            const auto f2 = pe.evalOutputs(inbar, &faults[k]);
            foldMasks(f1, f2, good, blk.laneMask(0), verdict[k]);
        }
    }
    return maskDigest(verdict);
}

/** The per-fault cone-restricted kernel on either replay kernel, at
 *  any lane width and dispatch target. Per-fault masks are
 *  accumulated over the active lanes only, so the digest is identical
 *  at every (kernel, width, target). */
std::uint64_t
runWideKernel(const sim::FlatNetlist &flat,
              const std::vector<Fault> &faults,
              const std::vector<WideBlock> &blocks, int lane_words,
              sim::SimdTarget target, sim::ReplayKernel kernel)
{
    sim::FaultSimulator fs(flat, lane_words, target, kernel);
    std::vector<sim::AlternatingMasks> verdict(faults.size());
    for (const WideBlock &blk : blocks) {
        fs.setAlternatingBlock(blk.in);
        for (std::size_t k = 0; k < faults.size(); ++k) {
            const sim::WideMasks m =
                fs.classifyAlternatingWide(faults[k]);
            for (int w = 0; w < lane_words; ++w) {
                const std::uint64_t lm = blk.laneMask(w);
                verdict[k].anyErr |= m.anyErr[w] & lm;
                verdict[k].nonAlt |= m.nonAlt[w] & lm;
                verdict[k].incorrect |= m.incorrect[w] & lm;
            }
        }
    }
    return maskDigest(verdict);
}

/**
 * The fault-parallel path the campaign runs by default: dominance
 * pruning + disjoint-cone batching + flip passes + CPT over the
 * collapsed classes, expanded back to per-fault masks through
 * classOf. Bit-identity of every class's masks with the per-fault
 * kernels makes the digest directly comparable.
 */
std::uint64_t
runFaultParallelKernel(const sim::FlatNetlist &flat,
                       const std::vector<Fault> &faults,
                       const fault::CollapseResult &col,
                       const sim::FaultBatchPlan &plan,
                       const std::vector<WideBlock> &blocks,
                       int lane_words, sim::SimdTarget target)
{
    sim::FaultSimulator fs(flat, lane_words, target);
    sim::BatchClassifier bc(fs, plan, /*batching=*/true);
    bc.setRange(0, plan.numGroups());
    std::vector<sim::AlternatingMasks> cls(col.representatives.size());
    for (const WideBlock &blk : blocks) {
        fs.setAlternatingBlock(blk.in);
        bc.classifyBlock(
            [&](std::size_t pos, const sim::WideMasks &m) {
                const int c = plan.classList()[pos];
                auto &v = cls[static_cast<std::size_t>(c)];
                for (int w = 0; w < lane_words; ++w) {
                    const std::uint64_t lm = blk.laneMask(w);
                    v.anyErr |= m.anyErr[w] & lm;
                    v.nonAlt |= m.nonAlt[w] & lm;
                    v.incorrect |= m.incorrect[w] & lm;
                }
            });
    }
    std::vector<sim::AlternatingMasks> verdict(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i)
        verdict[i] = cls[static_cast<std::size_t>(col.classOf[i])];
    return maskDigest(verdict);
}

/** Timing for the kernels at one lane width (native dispatch). */
struct WidthRow
{
    int lanes = 0;
    bench::TimingStats stats;  ///< cone-walk per-fault kernel
    bench::TimingStats events; ///< event-driven per-fault kernel
    bench::TimingStats fp;     ///< fault-parallel kernel
    bench::PairedRatio fpVsCone;
    bench::PairedRatio eventsVsWalk;
};

struct Row
{
    std::string name;
    std::size_t gates = 0;
    std::size_t faults = 0;
    std::uint64_t patterns = 0;
    bool hasRef = true;
    bench::TimingStats ref;
    bench::PairedRatio refVsCone; ///< ref vs the 64-lane cone kernel
    std::vector<WidthRow> widths; // ascending lanes; widths[0] is 64

    double throughput(double seconds) const
    {
        return static_cast<double>(faults) *
               static_cast<double>(patterns) / seconds;
    }
    /** ref vs the 64-lane cone kernel (the historical headline). */
    double speedup() const { return refVsCone.median; }
    /** 512-lane vs 64-lane cone kernel, both native dispatch. */
    double speedup512v64() const
    {
        return widths.front().stats.best / widths.back().stats.best;
    }
    /** Fault-parallel vs per-fault cone kernel at the widest lanes:
     *  the campaign-default configuration. */
    double speedupFp() const { return widths.back().fpVsCone.median; }
};

void
emitJson(std::ostream &os, const std::vector<Row> &rows,
         sim::SimdTarget native)
{
    // The wide geomean only counts scenarios whose pattern budget
    // fills at least one 512-lane block; a circuit whose exhaustive
    // space is a handful of patterns (section36: 8) has nothing for
    // the extra lanes to do and would just measure block overhead.
    double log_sum = 0, log_sum_wide = 0, log_sum_fp = 0;
    int ref_n = 0, wide_n = 0;
    os << "{\n  \"benchmark\": \"fault_sim\",\n  \"unit\": "
          "\"faults*patterns/s\",\n  \"simd\": \""
       << sim::simdTargetName(native) << "\",\n  \"reps\": "
       << rows.front().widths.front().stats.reps << ",\n  \"warmup\": "
       << rows.front().widths.front().stats.warmup << ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        if (r.hasRef) {
            log_sum += std::log(r.speedup());
            ++ref_n;
        }
        log_sum_fp += std::log(r.speedupFp());
        if (r.patterns >= 512) {
            log_sum_wide += std::log(r.speedup512v64());
            ++wide_n;
        }
        os << "    {\"name\": \"" << r.name << "\", \"gates\": "
           << r.gates << ", \"faults\": " << r.faults
           << ", \"patterns\": " << r.patterns << ", ";
        if (r.hasRef) {
            bench::emitStatsFields(os, "ref", r.ref);
            os << ", ";
        }
        bench::emitStatsFields(os, "cone", r.widths.front().stats);
        if (r.hasRef)
            os << ", \"ref_throughput\": " << r.throughput(r.ref.best);
        os << ", \"cone_throughput\": "
           << r.throughput(r.widths.front().stats.best);
        if (r.hasRef)
            os << ", \"speedup\": " << r.speedup()
               << ", \"ref_vs_cone_iqr\": " << r.refVsCone.iqr;
        os << ",\n     \"widths\": [";
        for (std::size_t w = 0; w < r.widths.size(); ++w) {
            const WidthRow &wr = r.widths[w];
            os << (w ? ", " : "") << "\n       {\"lanes\": " << wr.lanes
               << ", ";
            bench::emitStatsFields(os, "cone", wr.stats);
            os << ", ";
            bench::emitStatsFields(os, "events", wr.events);
            os << ", ";
            bench::emitStatsFields(os, "fp", wr.fp);
            os << ", \"throughput\": " << r.throughput(wr.stats.best)
               << ", \"fp_throughput\": " << r.throughput(wr.fp.best)
               << ", \"speedup_vs_64\": "
               << r.widths.front().stats.best / wr.stats.best
               << ", \"fp_speedup_vs_cone\": " << wr.fpVsCone.median
               << ", \"fp_vs_cone_iqr\": " << wr.fpVsCone.iqr
               << ", \"events_speedup_vs_walk\": "
               << wr.eventsVsWalk.median
               << ", \"events_vs_walk_iqr\": " << wr.eventsVsWalk.iqr
               << "}";
        }
        os << "],\n     \"speedup_512v64\": " << r.speedup512v64()
           << ",\n     \"speedup_fp\": " << r.speedupFp() << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    const double n = static_cast<double>(rows.size());
    os << "  ],\n  \"geomean_speedup\": "
       << (ref_n ? std::exp(log_sum / ref_n) : 1.0)
       << ",\n  \"geomean_speedup_512v64\": "
       << (wide_n ? std::exp(log_sum_wide / wide_n) : 1.0)
       << ",\n  \"geomean_512v64_scenarios\": " << wide_n
       << ",\n  \"geomean_speedup_fp\": " << std::exp(log_sum_fp / n)
       << "\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir = "circuits";
    std::uint64_t max_patterns = std::uint64_t{1} << 14;
    int reps = 5;
    std::string out_path = "BENCH_fault_sim.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--circuits") && i + 1 < argc)
            dir = argv[++i];
        else if (!std::strcmp(argv[i], "--max-patterns") && i + 1 < argc)
            max_patterns = std::strtoull(argv[++i], nullptr, 0);
        else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
            reps = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
    }
    if (!std::ifstream(dir + "/c17.bench")) {
        // Convenience when run from a build tree next to the source.
        if (std::ifstream("../circuits/c17.bench"))
            dir = "../circuits";
    }
    const sim::SimdTarget native =
        sim::resolveSimdTarget(sim::SimdTarget::Auto);
    const int width_list[] = {1, 4, 8};

    std::vector<Scenario> scenarios;
    scenarios.push_back(
        {"section36", netlist::circuits::section36Network()});
    scenarios.push_back(
        {"rca16", netlist::circuits::rippleCarryAdder(16)});
    scenarios.push_back(
        {"alu_add8", system::aluNetlist(system::AluOp::Add, 8)});
    // The bundled `-class` circuits through the real pipeline: the
    // hardened machines the fault-parallel path was built for. Full
    // resimulation is skipped there (minutes per repetition); the
    // cone kernel doubles as the digest oracle.
    for (const char *name : {"c432", "c880", "c1908"}) {
        const std::string path = dir + "/" + name + ".bench";
        if (!std::ifstream(path)) {
            std::cerr << "skipping missing " << path << "\n";
            continue;
        }
        const ingest::ImportedCircuit circ = ingest::importCircuit(path);
        scenarios.push_back({std::string(name) + "_hardened",
                             ingest::hardenNetlist(circ.net).net,
                             /*withRef=*/false});
    }

    std::vector<Row> rows;
    for (const Scenario &sc : scenarios) {
        const std::vector<Fault> faults = sc.net.allFaults();
        const int ni = sc.net.numInputs();
        const sim::FlatNetlist flat(sc.net);
        // The collapse/plan the default campaign path builds (the
        // plan is configuration-independent, so one per scenario).
        const fault::CollapseResult col = fault::collapseFaults(
            sc.net, {.constRefine = true, .dominance = true});
        const sim::FaultBatchPlan plan(flat, faults, col.classOf,
                                       col.representatives, col.pruned,
                                       /*enable_cpt=*/true);

        // Verdicts must agree — between the reference, both per-fault
        // replay kernels and the fault-parallel kernel, across every
        // lane width, and between portable and native dispatch —
        // before timing means anything. On scenarios without an
        // affordable full resimulation the cone-walk kernel anchors
        // the digest.
        std::uint64_t applied = 0;
        const auto narrow = buildBlocks(ni, max_patterns, 1, applied);
        const std::uint64_t want =
            sc.withRef ? runReferenceKernel(sc.net, faults, narrow)
                       : runWideKernel(flat, faults, narrow, 1, native,
                                       sim::ReplayKernel::ConeWalk);
        for (int lw : width_list) {
            const auto blocks = buildBlocks(ni, max_patterns, lw, applied);
            for (const sim::SimdTarget t :
                 {native, sim::SimdTarget::Portable}) {
                for (const sim::ReplayKernel k :
                     {sim::ReplayKernel::ConeWalk,
                      sim::ReplayKernel::Events}) {
                    if (runWideKernel(flat, faults, blocks, lw, t, k) !=
                        want) {
                        std::cerr << "FATAL: kernel digest mismatch on "
                                  << sc.name << " at " << 64 * lw
                                  << " lanes\n";
                        return 1;
                    }
                }
                if (runFaultParallelKernel(flat, faults, col, plan,
                                           blocks, lw, t) != want) {
                    std::cerr << "FATAL: fault-parallel digest mismatch on "
                              << sc.name << " at " << 64 * lw
                              << " lanes\n";
                    return 1;
                }
            }
        }

        Row row;
        row.name = sc.name;
        row.gates = static_cast<std::size_t>(sc.net.numGates());
        row.faults = faults.size();
        row.patterns = applied;
        row.hasRef = sc.withRef;
        for (int lw : width_list) {
            const auto blocks = buildBlocks(ni, max_patterns, lw, applied);
            // Sections 0-2: cone walk, events, fault-parallel; the
            // 64-lane round adds the full-resimulation reference (3).
            std::vector<std::function<void()>> sections = {
                [&] {
                    runWideKernel(flat, faults, blocks, lw, native,
                                  sim::ReplayKernel::ConeWalk);
                },
                [&] {
                    runWideKernel(flat, faults, blocks, lw, native,
                                  sim::ReplayKernel::Events);
                },
                [&] {
                    runFaultParallelKernel(flat, faults, col, plan,
                                           blocks, lw, native);
                }};
            const bool withRef = sc.withRef && lw == 1;
            if (withRef)
                sections.push_back(
                    [&] { runReferenceKernel(sc.net, faults, narrow); });
            const bench::Interleaved t(sections, reps);
            WidthRow wr;
            wr.lanes = 64 * lw;
            wr.stats = t.stats(0);
            wr.events = t.stats(1);
            wr.fp = t.stats(2);
            wr.fpVsCone = t.ratio(0, 2);
            wr.eventsVsWalk = t.ratio(0, 1);
            if (withRef) {
                row.ref = t.stats(3);
                row.refVsCone = t.ratio(3, 0);
            }
            row.widths.push_back(wr);
        }
        rows.push_back(row);
        std::cerr << sc.name << ": "
                  << (row.hasRef
                          ? "ref " + std::to_string(row.ref.best) + "s, "
                          : std::string())
                  << "cone64 " << row.widths.front().stats.best
                  << "s, cone512 " << row.widths.back().stats.best
                  << "s, events512 " << row.widths.back().events.best
                  << "s, fp512 " << row.widths.back().fp.best
                  << "s, 512v64 " << row.speedup512v64() << "x, fp "
                  << row.speedupFp() << "x, events "
                  << row.widths.back().eventsVsWalk.median << "x\n";
    }

    emitJson(std::cout, rows, native);
    std::ofstream f(out_path);
    emitJson(f, rows, native);
    return 0;
}
