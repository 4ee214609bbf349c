#include "pipeline.hh"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "engine/campaign_engine.hh"
#include "fault/report.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/io.hh"
#include "netlist/structure.hh"
#include "sim/fault_sim.hh"
#include "sim/simd.hh"
#include "sim/wide.hh"
#include "trace.hh"
#include "util/rng.hh"

namespace perfbench
{

using namespace scal;

std::uint64_t
verdictDigest(const std::string &verdictJson)
{
    std::istringstream in(verdictJson);
    std::string line, kept;
    while (std::getline(in, line)) {
        if (line.rfind("  \"lanes\":", 0) == 0 ||
            line.rfind("  \"simd\":", 0) == 0)
            continue;
        kept += line;
        kept += '\n';
    }
    return netlist::fnv1a64(kept);
}

namespace
{

/** Import, harden and verify @p text; throws when the hardened
 *  circuit does not alternate. */
netlist::Netlist
importHardenVerify(const std::string &text, int *phiInput)
{
    ingest::ImportedCircuit circ;
    {
        ScopedSpan s("ingest.parse");
        circ = ingest::importCircuitFromString(text);
    }
    ingest::HardenedCircuit h;
    {
        ScopedSpan s("ingest.harden");
        h = ingest::hardenNetlist(circ.net);
    }
    {
        ScopedSpan s("ingest.verify");
        if (!ingest::verifyAlternatingOperation(h.net, h.phiInput))
            throw std::runtime_error(circ.name +
                                     ": hardened circuit does not "
                                     "alternate");
    }
    *phiInput = h.phiInput;
    return std::move(h.net);
}

fault::CollapseOptions
combCollapseOptions()
{
    // The fault-parallel path of runAlternatingCampaign at its
    // defaults (dominance on).
    fault::CollapseOptions c;
    c.constRefine = true;
    c.dominance = true;
    return c;
}

fault::CollapseOptions
seqCollapseOptions(const netlist::Netlist &net)
{
    // runSequentialCampaign at its defaults over the full fault
    // window: the sequential rules are skipped on hardened machines.
    fault::CollapseOptions c;
    c.constRefine = true;
    c.dominance = true;
    c.seq = !netlist::looksSelfDualHardened(net);
    c.seqTimeFrame = c.seq;
    return c;
}

void
planSeq(SeqSetup &s, int groupWords)
{
    ScopedSpan span("sim.seq_plan");
    s.sites.clear();
    s.siteRep.clear();
    for (std::size_t r = 0; r < s.col.representatives.size(); ++r) {
        if (!s.col.pruned.empty() && s.col.pruned[r])
            continue;
        s.sites.push_back(
            sim::decodeSeqFaultSite(*s.flat, s.col.representatives[r]));
        s.siteRep.push_back(static_cast<int>(r));
    }
    s.plan = sim::planSeqBatches(*s.flat, s.sites, groupWords,
                                 sim::kMaxLaneWords);
}

} // namespace

std::unique_ptr<CombSetup>
setupComb(const std::string &text)
{
    auto s = std::make_unique<CombSetup>();
    int phi = -1;
    s->net = importHardenVerify(text, &phi);
    s->faults = s->net.allFaults();
    {
        ScopedSpan span("sim.flat_compile");
        s->flat = std::make_unique<sim::FlatNetlist>(s->net);
    }
    {
        ScopedSpan span("fault.collapse");
        s->col = fault::collapseFaults(s->net, combCollapseOptions());
    }
    {
        ScopedSpan span("sim.batch_plan");
        s->plan = std::make_unique<sim::FaultBatchPlan>(
            *s->flat, s->faults, s->col.classOf, s->col.representatives,
            s->col.pruned, true);
    }
    return s;
}

std::unique_ptr<SeqSetup>
setupSeq(const std::string &text)
{
    auto s = std::make_unique<SeqSetup>();
    s->net = importHardenVerify(text, &s->spec.phiInput);
    {
        ScopedSpan span("sim.flat_compile");
        s->flat = std::make_unique<sim::FlatNetlist>(s->net);
    }
    {
        ScopedSpan span("fault.collapse");
        s->col = fault::collapseFaults(s->net, seqCollapseOptions(s->net));
    }
    planSeq(*s, 1);
    return s;
}

namespace
{

/** runAlternatingCampaign's per-fault running verdict. */
struct Verdict
{
    bool tested = false;
    bool unsafe = false;
    std::vector<std::uint64_t> unsafePatterns;
};

/** One packed pattern block, in the campaign's Rng draw order. */
struct PatternBlock
{
    std::vector<std::uint64_t> in;
    std::vector<std::uint64_t> base;
    std::uint64_t first = 0;
    int lanes = 64;
};

std::vector<PatternBlock>
buildBlocks(int ni, bool exhaustive, std::uint64_t num_patterns,
            std::uint64_t seed, int lane_words)
{
    util::Rng rng(seed);
    const std::uint64_t block_lanes = 64ull * lane_words;
    std::vector<PatternBlock> blocks;
    for (std::uint64_t base = 0; base < num_patterns;
         base += block_lanes) {
        PatternBlock blk;
        blk.first = base;
        blk.lanes = static_cast<int>(
            std::min<std::uint64_t>(block_lanes, num_patterns - base));
        blk.in.assign(static_cast<std::size_t>(ni) * lane_words, 0);
        if (!exhaustive)
            blk.base.resize(static_cast<std::size_t>(blk.lanes));
        for (int lane = 0; lane < blk.lanes; ++lane) {
            const std::uint64_t pat = exhaustive ? base + lane : rng.next();
            if (!exhaustive)
                blk.base[static_cast<std::size_t>(lane)] = pat;
            const std::size_t word = static_cast<std::size_t>(lane) / 64;
            const std::uint64_t bit = 1ull << (lane % 64);
            for (int i = 0; i < ni; ++i)
                if ((pat >> i) & 1)
                    blk.in[static_cast<std::size_t>(i) * lane_words +
                           word] |= bit;
        }
        blocks.push_back(std::move(blk));
    }
    return blocks;
}

void
accumulate(const sim::WideMasks &m, const PatternBlock &blk, int lane_words,
           int keep, Verdict &v)
{
    bool any_err = false, any_unsafe = false;
    for (int w = 0; w < lane_words; ++w) {
        const int rem = blk.lanes - 64 * w;
        const std::uint64_t lm = rem <= 0    ? 0
                                 : rem >= 64 ? ~0ull
                                             : (1ull << rem) - 1;
        any_err |= (m.anyErr[static_cast<std::size_t>(w)] & lm) != 0;
        any_unsafe |= (m.unsafeWord(w) & lm) != 0;
    }
    v.tested |= any_err;
    if (!any_unsafe)
        return;
    v.unsafe = true;
    for (int lane = 0; lane < blk.lanes; ++lane) {
        if (static_cast<int>(v.unsafePatterns.size()) >= keep)
            break;
        if ((m.unsafeWord(lane / 64) >> (lane % 64)) & 1)
            v.unsafePatterns.push_back(
                blk.base.empty() ? blk.first + static_cast<std::uint64_t>(lane)
                                 : blk.base[static_cast<std::size_t>(lane)]);
    }
}

struct CombChunkOut
{
    std::vector<Verdict> verdicts;
    std::uint64_t batches = 0;
};

} // namespace

std::string
tracedCombCampaign(const netlist::Netlist &net,
                   const fault::CampaignOptions &opts, CombCounts *counts)
{
    fault::CampaignResult result;
    {
        ScopedSpan campaign("campaign");
        const int ni = net.numInputs();
        const bool exhaustive =
            ni < 63 && (1ull << ni) <= opts.maxPatterns;
        const std::uint64_t num_patterns =
            exhaustive ? (1ull << ni) : opts.maxPatterns;
        const sim::SimdTarget simd = sim::resolveSimdTarget(opts.simd);
        const int lane_words = opts.lanes == 0
                                   ? sim::defaultLaneWords(simd)
                                   : sim::laneWordsForLanes(opts.lanes);

        const std::vector<netlist::Fault> faults = net.allFaults();
        result.faults.resize(faults.size());
        for (std::size_t k = 0; k < faults.size(); ++k)
            result.faults[k].fault = faults[k];
        result.patternsApplied = num_patterns;
        result.lanes = 64 * lane_words;
        result.simd = simd;

        std::unique_ptr<sim::FlatNetlist> flat;
        {
            ScopedSpan s("sim.flat_compile");
            flat = std::make_unique<sim::FlatNetlist>(net);
        }
        std::vector<PatternBlock> blocks;
        {
            ScopedSpan s("sim.pattern_blocks");
            blocks = buildBlocks(ni, exhaustive, num_patterns, opts.seed,
                                 lane_words);
        }
        fault::CollapseResult col;
        {
            ScopedSpan s("fault.collapse");
            col = fault::collapseFaults(net, combCollapseOptions());
        }
        std::unique_ptr<sim::FaultBatchPlan> plan;
        {
            ScopedSpan s("sim.batch_plan");
            plan = std::make_unique<sim::FaultBatchPlan>(
                *flat, faults, col.classOf, col.representatives,
                col.pruned, opts.cpt);
        }

        engine::EngineOptions eopts;
        eopts.jobs = engine::resolveJobs(opts.jobs);
        eopts.chunksPerWorker = opts.chunksPerWorker;
        engine::CampaignEngine eng(eopts);
        const SpanContext ctx = Tracer::instance().current();
        const std::vector<CombChunkOut> outs =
            eng.mapWeightedChunks<CombChunkOut>(
                plan->groupCosts(), [&](engine::Chunk chunk, std::size_t) {
                    ScopedSpan span("engine.chunk", ctx);
                    sim::FaultSimulator fs(*flat, lane_words, opts.simd);
                    sim::BatchClassifier cl(fs, *plan, opts.faultBatch);
                    cl.setRange(static_cast<int>(chunk.begin),
                                static_cast<int>(chunk.end));
                    CombChunkOut out;
                    out.batches = cl.numBatches();
                    const std::size_t base = plan->classOffset(
                        static_cast<int>(chunk.begin));
                    out.verdicts.resize(
                        plan->classOffset(static_cast<int>(chunk.end)) -
                        base);
                    for (const PatternBlock &blk : blocks) {
                        {
                            ScopedSpan g("sim.good_sim");
                            fs.setAlternatingBlock(blk.in);
                        }
                        ScopedSpan c("sim.classify");
                        cl.classifyBlock([&](std::size_t pos,
                                             const sim::WideMasks &m) {
                            accumulate(m, blk, lane_words,
                                       opts.keepUnsafeExamples,
                                       out.verdicts[pos - base]);
                        });
                    }
                    return out;
                });

        ScopedSpan fold("fault.fold");
        std::vector<const Verdict *> classVerdict(
            static_cast<std::size_t>(plan->numClasses()));
        std::size_t pos = 0;
        std::uint64_t batches = 0;
        for (const CombChunkOut &o : outs) {
            batches += o.batches;
            for (const Verdict &v : o.verdicts)
                classVerdict[static_cast<std::size_t>(
                    plan->classList()[pos++])] = &v;
        }
        for (std::size_t k = 0; k < faults.size(); ++k) {
            const Verdict &v = *classVerdict[static_cast<std::size_t>(
                col.classOf[k])];
            fault::FaultResult &fr = result.faults[k];
            fr.outcome = v.unsafe   ? fault::Outcome::Unsafe
                         : v.tested ? fault::Outcome::Detected
                                    : fault::Outcome::Untestable;
            fr.unsafePatterns = v.unsafePatterns;
            switch (fr.outcome) {
              case fault::Outcome::Untestable: ++result.numUntestable; break;
              case fault::Outcome::Detected:   ++result.numDetected; break;
              case fault::Outcome::Unsafe:     ++result.numUnsafe; break;
            }
        }
        const sim::BatchPlanStats ps = plan->stats();
        counts->classes = plan->numClasses();
        counts->pruned = ps.prunedClasses;
        counts->flip = ps.flipClasses;
        counts->cpt = ps.cptClasses;
        counts->sim = ps.simClasses;
        counts->batchesPerBlock = batches;
    }
    ScopedSpan s("fault.verdict_json");
    return fault::campaignVerdictJson(net, result);
}

namespace
{

struct SeqRep
{
    fault::Outcome outcome = fault::Outcome::Untestable;
    long firstAlarm = -1, firstEscape = -1;
    std::array<std::uint64_t, fault::kLatencyBuckets> latHist{};
    std::uint64_t alarmLanes = 0, latSum = 0;
};

struct SeqChunkOut
{
    std::vector<std::pair<int, SeqRep>> verdicts; ///< by class index
    long periodsSimulated = 0, retiredEarly = 0;
};

} // namespace

std::string
tracedSeqCampaign(const netlist::Netlist &net,
                  const fault::SeqCampaignSpec &spec,
                  const fault::SeqCampaignOptions &opts, SeqCounts *counts)
{
    if (opts.lanes <= 0 || opts.lanes > 64 * (sim::kMaxLaneWords - 1))
        throw std::invalid_argument(
            "traced seq campaign covers the lane-batched path only");
    fault::SeqCampaignResult result;
    {
        ScopedSpan campaign("campaign");
        const int ni = net.numInputs();
        const int no = net.numOutputs();
        const int Wg = sim::laneWordsForLanes(opts.lanes);
        const int Wb = sim::kMaxLaneWords;
        const sim::SimdTarget simd = sim::resolveSimdTarget(opts.simd);

        SeqSetup s;
        {
            ScopedSpan span("sim.flat_compile");
            s.flat = std::make_unique<sim::FlatNetlist>(net);
        }
        {
            ScopedSpan span("fault.collapse");
            s.col = fault::collapseFaults(net, seqCollapseOptions(net));
        }
        planSeq(s, Wg);

        std::vector<int> all(static_cast<std::size_t>(no));
        for (int j = 0; j < no; ++j)
            all[static_cast<std::size_t>(j)] = j;
        const std::vector<int> &data =
            spec.dataOutputs.empty() ? all : spec.dataOutputs;
        const std::vector<int> &alt =
            spec.altOutputs.empty() ? all : spec.altOutputs;
        std::vector<std::uint8_t> hold(static_cast<std::size_t>(ni), 0);
        for (const int i : spec.holdInputs)
            hold[static_cast<std::size_t>(i)] = 1;
        std::array<std::uint64_t, sim::kMaxLaneWords> laneMask{};
        for (int w = 0; w < Wg; ++w) {
            const int rem = opts.lanes - 64 * w;
            laneMask[static_cast<std::size_t>(w)] =
                rem >= 64 ? ~0ull : rem <= 0 ? 0 : (1ull << rem) - 1;
        }

        sim::SeqGoodTrace trace(*s.flat, spec.phiInput, Wb, simd);
        {
            ScopedSpan span("sim.seq_trace");
            const auto words = fault::buildSymbolWords(
                ni, spec.phiInput, opts.symbols, opts.seed, Wg);
            trace.reservePeriods(2 * opts.symbols);
            std::vector<std::uint64_t> inw(static_cast<std::size_t>(ni) * Wb);
            std::vector<std::uint64_t> inbarw(inw.size());
            for (long sy = 0; sy < opts.symbols; ++sy) {
                for (int i = 0; i < ni; ++i)
                    for (int w = 0; w < Wb; ++w) {
                        const std::uint64_t v =
                            words[static_cast<std::size_t>(sy)]
                                 [static_cast<std::size_t>(i) * Wg +
                                  static_cast<std::size_t>(w % Wg)];
                        const std::size_t idx =
                            static_cast<std::size_t>(i) * Wb + w;
                        inw[idx] = v;
                        inbarw[idx] = (i == spec.phiInput ||
                                       hold[static_cast<std::size_t>(i)])
                                          ? v
                                          : ~v;
                    }
                trace.stepPeriod(inw.data());
                trace.stepPeriod(inbarw.data());
            }
        }

        sim::SeqFaultBatchSimulator::FoldSpec fold;
        fold.alt = alt.data();
        fold.nalt = static_cast<int>(alt.size());
        fold.pairs = spec.codePairs.data();
        fold.npairs = static_cast<int>(spec.codePairs.size()) / 2;
        fold.data = data.data();
        fold.ndata = static_cast<int>(data.size());

        engine::EngineOptions eopts;
        eopts.jobs = engine::resolveJobs(opts.jobs);
        eopts.chunksPerWorker = opts.chunksPerWorker;
        engine::CampaignEngine eng(eopts);
        const SpanContext ctx = Tracer::instance().current();
        int groupsPerBatch = 0;
        const std::vector<SeqChunkOut> outs =
            eng.mapWeightedChunks<SeqChunkOut>(
                s.plan.weights, [&](engine::Chunk chunk, std::size_t) {
                    ScopedSpan span("engine.chunk", ctx);
                    SeqChunkOut out;
                    sim::SeqFaultBatchSimulator bsim(trace, Wg);
                    const int F = bsim.groupsPerBatch();
                    if (chunk.begin == 0)
                        groupsPerBatch = F;
                    std::vector<sim::SeqFaultSite> bs(
                        static_cast<std::size_t>(F));
                    std::vector<fault::SeqVerdictAccumulator> accs;
                    accs.reserve(static_cast<std::size_t>(F));
                    for (std::size_t b = chunk.begin; b < chunk.end; ++b) {
                        const std::vector<int> &members = s.plan.batches[b];
                        const int nf = static_cast<int>(members.size());
                        accs.clear();
                        for (int i = 0; i < nf; ++i) {
                            bs[static_cast<std::size_t>(i)] =
                                s.sites[static_cast<std::size_t>(members[i])];
                            accs.emplace_back(laneMask.data(), Wg,
                                              opts.dropDetected);
                        }
                        const auto sink = [&accs](int f, long sym,
                                                  const std::uint64_t *a,
                                                  const std::uint64_t *w) {
                            return accs[static_cast<std::size_t>(f)]
                                .addSymbol(sym, a, w);
                        };
                        {
                            ScopedSpan run("sim.seq_batch_run");
                            bsim.beginBatch(bs.data(), nf, opts.faultStart,
                                            opts.faultEnd);
                            bsim.run(fold, sink);
                            bsim.flushPending(fold, sink);
                        }
                        out.periodsSimulated += bsim.periodsSimulated();
                        for (int i = 0; i < nf; ++i) {
                            const auto &site = bs[static_cast<std::size_t>(i)];
                            if (bsim.retired(i) &&
                                site.kind != sim::SeqFaultSite::Kind::Inert)
                                ++out.retiredEarly;
                            const auto &acc =
                                accs[static_cast<std::size_t>(i)];
                            SeqRep rv;
                            rv.outcome = acc.outcome();
                            rv.firstAlarm = acc.firstAlarmPeriod();
                            rv.firstEscape = acc.firstEscapePeriod();
                            for (int l = 0; l < opts.lanes; ++l) {
                                const long p = acc.laneFirstAlarm(l);
                                if (p >= 0) {
                                    ++rv.latHist[static_cast<std::size_t>(
                                        fault::latencyBucket(p))];
                                    ++rv.alarmLanes;
                                    rv.latSum += static_cast<std::uint64_t>(p);
                                }
                            }
                            out.verdicts.emplace_back(
                                s.siteRep[static_cast<std::size_t>(
                                    members[i])],
                                rv);
                        }
                    }
                    return out;
                });

        ScopedSpan foldSpan("fault.fold");
        std::vector<SeqRep> reps(s.col.representatives.size());
        for (const SeqChunkOut &o : outs) {
            for (const auto &[rep, rv] : o.verdicts)
                reps[static_cast<std::size_t>(rep)] = rv;
            counts->periodsSimulated += o.periodsSimulated;
            counts->retiredEarly += o.retiredEarly;
        }
        const std::vector<netlist::Fault> faults = net.allFaults();
        result.faults.resize(faults.size());
        std::uint64_t latSum = 0;
        for (std::size_t k = 0; k < faults.size(); ++k) {
            const SeqRep &rv =
                reps[static_cast<std::size_t>(s.col.classOf[k])];
            fault::SeqFaultVerdict &fv = result.faults[k];
            fv.fault = faults[k];
            fv.outcome = rv.outcome;
            fv.firstAlarmPeriod = rv.firstAlarm;
            fv.firstEscapePeriod = rv.firstEscape;
            switch (rv.outcome) {
              case fault::Outcome::Untestable: ++result.numUntestable; break;
              case fault::Outcome::Detected:   ++result.numDetected; break;
              case fault::Outcome::Unsafe:     ++result.numUnsafe; break;
            }
            for (int b = 0; b < fault::kLatencyBuckets; ++b)
                result.latencyHistogram[static_cast<std::size_t>(b)] +=
                    rv.latHist[static_cast<std::size_t>(b)];
            result.alarmLaneCount += rv.alarmLanes;
            latSum += rv.latSum;
        }
        if (result.alarmLaneCount)
            result.meanAlarmPeriod = static_cast<double>(latSum) /
                                     static_cast<double>(result.alarmLaneCount);
        result.symbols = opts.symbols;
        result.lanes = opts.lanes;
        result.simd = sim::wideKernels(Wg, simd).target;

        counts->batches = static_cast<long>(s.plan.batches.size());
        counts->sites = static_cast<long>(s.sites.size());
        counts->groupsPerBatch = groupsPerBatch;
        for (const auto &b : s.plan.batches)
            counts->members += static_cast<long>(b.size());
    }
    ScopedSpan s("fault.verdict_json");
    return fault::seqCampaignVerdictJson(net, result);
}

} // namespace perfbench
