#include "fault/seq_campaign.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "engine/campaign_engine.hh"
#include "fault/collapse.hh"
#include "fault/report.hh"
#include "fault/shard.hh"
#include "netlist/io.hh"
#include "netlist/structure.hh"
#include "sim/flat.hh"
#include "sim/seq_batch_sim.hh"
#include "sim/seq_fault_sim.hh"
#include "util/rng.hh"

namespace scal::fault
{

using namespace netlist;

namespace
{

/** Spec with defaults resolved against the netlist. */
struct ResolvedSpec
{
    std::vector<int> dataOutputs;
    std::vector<int> altOutputs;
    std::vector<int> codePairs;
    int laneWords = 1;
    std::array<std::uint64_t, sim::kMaxLaneWords> laneMask{};
};

/** Per-representative verdict payload, merged deterministically. The
 *  per-lane first-alarm times are pre-bucketed here rather than
 *  carried as a lanes-long vector: at 512 lanes the flat vector is
 *  the dominant per-fault bookkeeping cost and the campaign result
 *  only ever consumes the aggregate. */
struct RepVerdict
{
    Outcome outcome = Outcome::Untestable;
    long firstAlarm = -1;
    long firstEscape = -1;
    std::array<std::uint64_t, kLatencyBuckets> latHist{};
    std::uint64_t alarmLanes = 0;
    std::uint64_t latSum = 0;
    long periodsSimulated = 0;
    long periodsSkipped = 0;
};

/** A finished accumulator's verdict, latencies bucketed. */
RepVerdict
foldVerdict(const SeqVerdictAccumulator &acc, int lanes)
{
    RepVerdict rv;
    rv.outcome = acc.outcome();
    rv.firstAlarm = acc.firstAlarmPeriod();
    rv.firstEscape = acc.firstEscapePeriod();
    for (int l = 0; l < lanes; ++l) {
        const long p = acc.laneFirstAlarm(l);
        if (p >= 0) {
            ++rv.latHist[latencyBucket(p)];
            ++rv.alarmLanes;
            rv.latSum += static_cast<std::uint64_t>(p);
        }
    }
    return rv;
}

/**
 * Classify faults[begin, end) one at a time against the shared trace
 * with the single-fault kernel: the reference's replay step. The
 * packed kernel only reports periods whose outputs differ from the
 * trace; undelivered halves of a symbol are read from the trace
 * (bit-identical by the kernel's contract), and symbols with no
 * delivery at all contribute nothing — valid because the fault-free
 * machine is alarm-free (checked by buildTrace) and trivially has no
 * wrong data words.
 */
std::vector<RepVerdict>
classifySeqChunk(const sim::SeqGoodTrace &trace, const ResolvedSpec &rs,
                 const std::vector<Fault> &faults, std::size_t begin,
                 std::size_t end, const SeqCampaignOptions &opts,
                 engine::ProgressTracker *progress)
{
    sim::SeqFaultSimulator fsim(trace);
    const int no = trace.flat().numOutputs();
    const int W = rs.laneWords;
    const std::size_t row = static_cast<std::size_t>(no) * W;
    std::vector<std::uint64_t> buf0(row);
    const sim::detail::WideKernels &kernels = trace.kernels();
    const int npairs = static_cast<int>(rs.codePairs.size()) / 2;

    std::vector<RepVerdict> out(end - begin);
    for (std::size_t k = begin; k < end; ++k) {
        if (opts.cancel && opts.cancel->stopRequested())
            throw engine::CampaignCancelled();
        SeqVerdictAccumulator acc(rs.laneMask.data(), W,
                                  opts.dropDetected);
        long pending = -1;
        bool have0 = false;

        // The phase-1 row can be folded straight from the sink's
        // buffer (the symbol completes inside the callback); only a
        // phase-0 row has to be stashed until its partner arrives.
        auto flush = [&](long s, const std::uint64_t *p1row) -> bool {
            const std::uint64_t *p0 =
                have0 ? buf0.data() : trace.outputs(2 * s);
            const std::uint64_t *p1 =
                p1row ? p1row : trace.outputs(2 * s + 1);
            std::uint64_t alarm[sim::kMaxLaneWords];
            std::uint64_t wrong[sim::kMaxLaneWords];
            kernels.seqAlarmWrong(
                p0, p1, trace.outputs(2 * s), rs.altOutputs.data(),
                static_cast<int>(rs.altOutputs.size()),
                rs.codePairs.data(), npairs, rs.dataOutputs.data(),
                static_cast<int>(rs.dataOutputs.size()), alarm, wrong);
            have0 = false;
            pending = -1;
            return acc.addSymbol(s, alarm, wrong);
        };

        fsim.runFault(
            faults[k],
            [&](long t, std::uint64_t, const std::uint64_t *outs) {
                const long s = t / 2;
                if (pending >= 0 && pending != s &&
                    !flush(pending, nullptr))
                    return false;
                pending = s;
                if (t & 1)
                    return flush(s, outs);
                std::copy(outs, outs + row, buf0.begin());
                have0 = true;
                return true;
            },
            opts.faultStart, opts.faultEnd);
        if (pending >= 0)
            flush(pending, nullptr); // trailing phase-0-only divergence

        RepVerdict &rv = out[k - begin];
        rv = foldVerdict(acc, opts.lanes);
        rv.periodsSimulated = fsim.periodsSimulated();
        rv.periodsSkipped = fsim.periodsSkipped();
        if (progress) {
            progress->addPatterns(
                static_cast<std::uint64_t>(fsim.periodsSimulated()));
            if (rv.outcome == Outcome::Unsafe)
                progress->addUnsafe(1);
        }
    }
    if (progress)
        progress->addFaultsDone(end - begin);
    return out;
}

/**
 * Validate the spec against the netlist and resolve its defaults plus
 * the packed lane mask.
 */
ResolvedSpec
resolveSeqSpec(const Netlist &net, const SeqCampaignSpec &spec,
               int lanes, std::vector<std::uint8_t> *hold)
{
    const int ni = net.numInputs();
    const int no = net.numOutputs();
    const int W = sim::laneWordsForLanes(lanes);

    ResolvedSpec rs;
    rs.dataOutputs = spec.dataOutputs;
    rs.altOutputs = spec.altOutputs;
    rs.codePairs = spec.codePairs;
    if (rs.dataOutputs.empty())
        for (int j = 0; j < no; ++j)
            rs.dataOutputs.push_back(j);
    if (rs.altOutputs.empty())
        for (int j = 0; j < no; ++j)
            rs.altOutputs.push_back(j);
    rs.laneWords = W;
    for (int w = 0; w < W; ++w) {
        const int rem = lanes - 64 * w;
        rs.laneMask[static_cast<std::size_t>(w)] =
            rem >= 64    ? ~std::uint64_t{0}
            : rem <= 0   ? 0
                         : (std::uint64_t{1} << rem) - 1;
    }
    auto check_output = [no](int j) {
        if (j < 0 || j >= no)
            throw std::invalid_argument("output index out of range");
    };
    for (const int j : rs.dataOutputs)
        check_output(j);
    for (const int j : rs.altOutputs)
        check_output(j);
    for (const int j : rs.codePairs)
        check_output(j);
    hold->assign(static_cast<std::size_t>(ni), 0);
    for (const int i : spec.holdInputs) {
        if (i < 0 || i >= ni)
            throw std::invalid_argument("hold input index out of range");
        (*hold)[static_cast<std::size_t>(i)] = 1;
    }
    return rs;
}

/** Fold expanded per-fault verdicts into the result. */
void
finalizeSeqResult(SeqCampaignResult &result,
                  const std::vector<const RepVerdict *> &verdictOf)
{
    std::uint64_t lat_sum = 0;
    for (std::size_t k = 0; k < result.faults.size(); ++k) {
        const RepVerdict &rv = *verdictOf[k];
        result.faults[k].outcome = rv.outcome;
        result.faults[k].firstAlarmPeriod = rv.firstAlarm;
        result.faults[k].firstEscapePeriod = rv.firstEscape;
        switch (rv.outcome) {
          case Outcome::Untestable: ++result.numUntestable; break;
          case Outcome::Detected:   ++result.numDetected; break;
          case Outcome::Unsafe:     ++result.numUnsafe; break;
        }
        for (int b = 0; b < kLatencyBuckets; ++b)
            result.latencyHistogram[static_cast<std::size_t>(b)] +=
                rv.latHist[static_cast<std::size_t>(b)];
        result.alarmLaneCount += rv.alarmLanes;
        lat_sum += rv.latSum;
    }
    if (result.alarmLaneCount)
        result.meanAlarmPeriod =
            static_cast<double>(lat_sum) /
            static_cast<double>(result.alarmLaneCount);
}


/** Per-chunk result of the lane-batched classifier. */
struct BatchChunkOut
{
    std::vector<std::pair<int, RepVerdict>> verdicts; ///< by class id
    long periodsSimulated = 0;
    long periodsSkipped = 0;
    long retiredEarly = 0;
};

/** The batch plan of one shard: which sites share a replay. */
struct SeqBatches
{
    std::vector<sim::SeqFaultSite> sites; ///< per unpruned class
    std::vector<int> siteRep;             ///< site -> class id
    sim::SeqBatchPlan plan;
};

/**
 * Replay plan batches [begin, end). Each call owns its simulator and
 * reads only immutable shared state, so a fault's verdict cannot
 * depend on which chunk simulated it; verdicts fold through the same
 * accumulator as the reference's classifySeqChunk.
 */
BatchChunkOut
classifySeqBatchChunk(const sim::SeqGoodTrace &trace,
                      const SeqBatches &sb, const ResolvedSpec &rs,
                      std::size_t begin, std::size_t end,
                      const SeqCampaignOptions &opts,
                      engine::ProgressTracker *progress)
{
    // The verdict list outlives the chunk: allocating it whole, before
    // the simulator, leaves the simulator's memory on top of the
    // worker's heap, where freeing it lets the heap shrink back.
    BatchChunkOut out;
    std::size_t nverdicts = 0;
    for (std::size_t b = begin; b < end; ++b)
        nverdicts += sb.plan.batches[b].size();
    out.verdicts.reserve(nverdicts);
    const int Wg = rs.laneWords;
    sim::SeqFaultBatchSimulator bsim(trace, Wg);
    const int F = bsim.groupsPerBatch();

    sim::SeqFaultBatchSimulator::FoldSpec fold;
    fold.alt = rs.altOutputs.data();
    fold.nalt = static_cast<int>(rs.altOutputs.size());
    fold.pairs = rs.codePairs.data();
    fold.npairs = static_cast<int>(rs.codePairs.size()) / 2;
    fold.data = rs.dataOutputs.data();
    fold.ndata = static_cast<int>(rs.dataOutputs.size());

    std::vector<sim::SeqFaultSite> bs(static_cast<std::size_t>(F));
    std::vector<SeqVerdictAccumulator> accs;
    accs.reserve(static_cast<std::size_t>(F));

    for (std::size_t b = begin; b < end; ++b) {
        if (opts.cancel && opts.cancel->stopRequested())
            throw engine::CampaignCancelled();
        const std::vector<int> &members = sb.plan.batches[b];
        const int nf = static_cast<int>(members.size());
        accs.clear();
        for (int i = 0; i < nf; ++i) {
            bs[static_cast<std::size_t>(i)] =
                sb.sites[static_cast<std::size_t>(members[i])];
            accs.emplace_back(rs.laneMask.data(), Wg, opts.dropDetected);
        }

        bsim.beginBatch(bs.data(), nf, opts.faultStart, opts.faultEnd);
        const auto sink = [&accs](int f, long s,
                                  const std::uint64_t *alarm,
                                  const std::uint64_t *wrong) {
            return accs[static_cast<std::size_t>(f)].addSymbol(s, alarm,
                                                               wrong);
        };
        bsim.run(fold, sink);
        bsim.flushPending(fold, sink);

        out.periodsSimulated += bsim.periodsSimulated();
        out.periodsSkipped += bsim.periodsSkipped();
        for (int i = 0; i < nf; ++i) {
            if (bsim.retired(i) &&
                bs[static_cast<std::size_t>(i)].kind !=
                    sim::SeqFaultSite::Kind::Inert)
                ++out.retiredEarly;
            RepVerdict rv =
                foldVerdict(accs[static_cast<std::size_t>(i)], opts.lanes);
            if (progress && rv.outcome == Outcome::Unsafe)
                progress->addUnsafe(1);
            out.verdicts.emplace_back(
                sb.siteRep[static_cast<std::size_t>(members[i])],
                std::move(rv));
        }
        if (progress) {
            progress->addPatterns(
                static_cast<std::uint64_t>(bsim.periodsSimulated()));
            progress->addFaultsDone(static_cast<std::size_t>(nf));
        }
    }
    return out;
}

/** The checked stream shape of a campaign: lanes, words, kernels. */
struct SeqStream
{
    int lanes = 64;
    int laneWords = 1;
    sim::SimdTarget simd = sim::SimdTarget::Portable;
};

SeqStream
resolveSeqStream(const SeqCampaignOptions &opts)
{
    if (opts.lanes < 0 || opts.lanes > 512)
        throw std::invalid_argument("lanes must be 0 (auto) or 1..512");
    if (opts.symbols < 1)
        throw std::invalid_argument("need at least one symbol");
    // Resolve the packed width and kernel build once, up front, so
    // every worker runs the same configuration.
    SeqStream st;
    st.simd = sim::resolveSimdTarget(opts.simd);
    st.lanes =
        opts.lanes == 0 ? 64 * sim::defaultLaneWords(st.simd) : opts.lanes;
    st.laneWords = sim::laneWordsForLanes(st.lanes);
    return st;
}

/**
 * Step @p trace (trace.laneWords() words per line) through the
 * campaign's symbol stream, the @p rs.laneWords-word stream
 * replicated into every lane group, and check the precondition for
 * skipping symbols a fault never touches: the fault-free machine is
 * alarm-free on every symbol.
 */
void
buildTrace(sim::SeqGoodTrace &trace, int num_inputs,
           const SeqCampaignSpec &spec, const ResolvedSpec &rs,
           const std::vector<std::uint8_t> &hold,
           const SeqCampaignOptions &opts)
{
    const int W = rs.laneWords;
    const int Wt = trace.laneWords();
    const auto words = buildSymbolWords(num_inputs, spec.phiInput,
                                        opts.symbols, opts.seed, W);
    trace.reservePeriods(2 * opts.symbols);
    std::vector<std::uint64_t> inw(static_cast<std::size_t>(num_inputs) *
                                   Wt);
    std::vector<std::uint64_t> inbarw(inw.size());
    for (long s = 0; s < opts.symbols; ++s) {
        for (int i = 0; i < num_inputs; ++i)
            for (int w = 0; w < Wt; ++w) {
                const std::uint64_t v =
                    words[static_cast<std::size_t>(s)]
                         [static_cast<std::size_t>(i) * W + (w % W)];
                const std::size_t idx = static_cast<std::size_t>(i) * Wt + w;
                inw[idx] = v;
                inbarw[idx] = (i == spec.phiInput ||
                               hold[static_cast<std::size_t>(i)])
                                  ? v
                                  : ~v;
            }
        trace.stepPeriod(inw.data());
        trace.stepPeriod(inbarw.data());
    }

    std::uint64_t alarm[sim::kMaxLaneWords], wrong[sim::kMaxLaneWords];
    for (long s = 0; s < opts.symbols; ++s) {
        const std::uint64_t *p0 = trace.outputs(2 * s);
        trace.kernels().seqAlarmWrong(
            p0, trace.outputs(2 * s + 1), p0, rs.altOutputs.data(),
            static_cast<int>(rs.altOutputs.size()), rs.codePairs.data(),
            static_cast<int>(rs.codePairs.size()) / 2, nullptr, 0, alarm,
            wrong);
        for (int w = 0; w < Wt; ++w)
            if (alarm[w] & rs.laneMask[static_cast<std::size_t>(w % W)])
                throw std::invalid_argument(
                    "fault-free machine raises an alarm: not an "
                    "alternating (SCAL) machine under this spec");
    }
}

/**
 * Collapse options of the pipeline. The collapsing equivalences are
 * same-line-function equivalences (Dffs collapse nothing), so they
 * hold per period and therefore over any sequence — the const-refined
 * chains included, whose constant propagation treats Dff outputs as
 * free variables. The sequential rules are skipped on a netlist that
 * structurally looks like a verified self-dual hardened realization:
 * the Yamamoto mux isolates every original line there, so they prune
 * nothing (EXPERIMENTS E23) and the pass is pure cost. Time-frame
 * equivalence needs a fault window covering the whole run.
 */
CollapseOptions
seqCollapseOptions(const Netlist &net, const SeqCampaignOptions &opts)
{
    CollapseOptions c;
    c.constRefine = true;
    c.dominance = true;
    c.seq = !netlist::looksSelfDualHardened(net);
    c.seqTimeFrame =
        c.seq && opts.faultStart <= 0 && opts.faultEnd >= 2 * opts.symbols;
    return c;
}

/** A result with the fault list and stream identity filled in. */
SeqCampaignResult
emptyResult(const std::vector<Fault> &faults,
            const SeqCampaignOptions &opts, const SeqStream &st)
{
    SeqCampaignResult result;
    result.faults.resize(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k)
        result.faults[k].fault = faults[k];
    result.symbols = opts.symbols;
    result.lanes = st.lanes;
    result.simd = sim::wideKernels(st.laneWords, st.simd).target;
    return result;
}

RepVerdict
fromRecord(const shard_detail::SeqRecord &rec)
{
    RepVerdict rv;
    rv.outcome = static_cast<Outcome>(rec.outcome);
    rv.firstAlarm = static_cast<long>(rec.firstAlarm);
    rv.firstEscape = static_cast<long>(rec.firstEscape);
    rv.alarmLanes = rec.alarmLanes;
    rv.latSum = rec.latSum;
    rv.latHist = rec.latHist;
    return rv;
}

/** The non-deterministic tail counters of @p p into @p r. */
void
fillTail(SeqCampaignResult &r, const shard_detail::SeqPayload &p)
{
    r.periodsSimulated = static_cast<long>(p.periodsSimulated);
    r.periodsSkipped = static_cast<long>(p.periodsSkipped);
    r.retiredEarly = static_cast<long>(p.retiredEarly);
    r.classes = p.classes;
    r.prunedClasses = p.prunedClasses;
    r.prunedFaults = p.prunedFaults;
    r.batchedClasses = p.batchedClasses;
    r.batches = p.batches;
    r.faultBatch = true; // the pipeline always lane-batches
}

/**
 * One shard of the seq pipeline over the collapsed class space, a
 * pure function of (netlist, config), so every process derives the
 * same cost-weighted contiguous class slice. The slice's unpruned
 * classes are packed into lane batches (sim/seq_batch_sim), as many
 * fault lane groups per widest kernel block as fit — one above 256
 * lanes — and batches are the work units. Verdicts are
 * batch-composition-independent, which licenses per-shard planning.
 */
class SeqSlice : public shard_detail::SliceWork
{
  public:
    SeqSlice(const Netlist &net, const SeqCampaignSpec &spec,
             const SeqCampaignOptions &opts,
             const engine::ShardSpec &shard)
        : net_(net), spec_(spec), opts_(opts),
          st_(resolveSeqStream(opts)), ropts_(resolvedOptions()),
          rs_(resolveSeqSpec(net, spec, st_.lanes, &hold_)),
          colOpts_(seqCollapseOptions(net, opts)),
          col_(collapseFaults(net, colOpts_)), flat_(net),
          trace_(flat_, spec.phiInput, sim::kMaxLaneWords, st_.simd),
          verdicts_(col_.representatives.size())
    {
        buildTrace(trace_, net.numInputs(), spec, rs_, hold_, ropts_);
        std::vector<sim::SeqFaultSite> sites; // per unpruned class
        std::vector<int> live;
        for (std::size_t r = 0; r < verdicts_.size(); ++r) {
            if (isPruned(r))
                continue;
            sites.push_back(
                sim::decodeSeqFaultSite(flat_, col_.representatives[r]));
            live.push_back(static_cast<int>(r));
        }
        // Each unpruned class weighs its representative's replay cost
        // (sim::seqSiteCosts), pruned classes 1, so shards own ~equal
        // simulation work instead of equal class counts.
        c1_ = verdicts_.size();
        if (shard.active()) {
            const std::vector<std::uint64_t> costs =
                sim::seqSiteCosts(flat_, sites);
            std::vector<std::uint64_t> w(verdicts_.size(), 1);
            for (std::size_t i = 0; i < live.size(); ++i)
                w[static_cast<std::size_t>(live[i])] = costs[i];
            const engine::Chunk slice = engine::shardSliceWeighted(w, shard);
            c0_ = slice.begin;
            c1_ = slice.end;
        }
        for (std::size_t i = 0; i < live.size(); ++i) {
            if (!inSlice(static_cast<std::size_t>(live[i])))
                continue;
            sb_.sites.push_back(sites[i]);
            sb_.siteRep.push_back(live[i]);
        }
        sb_.plan = sim::planSeqBatches(flat_, sb_.sites, st_.laneWords,
                                       sim::kMaxLaneWords);
        for (const int c : col_.classOf)
            faultsInSlice_ += inSlice(static_cast<std::size_t>(c));
    }

    std::uint64_t units() const override { return sb_.plan.batches.size(); }
    std::uint64_t classesIn(std::uint64_t u0,
                            std::uint64_t u1) const override
    {
        std::uint64_t n = 0;
        for (std::uint64_t b = u0; b < u1; ++b)
            n += sb_.plan.batches[b].size();
        return n;
    }
    std::uint64_t faults() const override { return faultsInSlice_; }
    std::uint64_t simulatedClasses() const override
    {
        return sb_.sites.size();
    }
    std::uint64_t patterns() const override
    {
        return static_cast<std::uint64_t>(opts_.symbols) *
               static_cast<std::uint64_t>(st_.lanes);
    }

    void
    classify(engine::CampaignEngine &eng, std::uint64_t u0,
             std::uint64_t u1) override
    {
        // Equal-count chunks of batches: a batch's plan weight (root
        // cone sizes) predicts its first replay period, not how long
        // its faults stay live, and weight-balanced chunks measured
        // slower at jobs=2 (EXPERIMENTS E23).
        const auto outs = eng.mapChunks<BatchChunkOut>(
            u1 - u0, [&](engine::Chunk chunk, std::size_t) {
                return classifySeqBatchChunk(trace_, sb_, rs_,
                                             u0 + chunk.begin,
                                             u0 + chunk.end, ropts_,
                                             &eng.progress());
            });
        for (const BatchChunkOut &o : outs) {
            periodsSimulated_ += o.periodsSimulated;
            periodsSkipped_ += o.periodsSkipped;
            retiredEarly_ += o.retiredEarly;
            for (const auto &[rep, rv] : o.verdicts)
                verdicts_[static_cast<std::size_t>(rep)] = rv;
        }
    }

    engine::SnapshotHeader
    identity() const override
    {
        engine::SnapshotHeader h;
        h.kind = "seq";
        h.netHash = netlist::contentHash(net_);
        h.configKey = canonicalSeqCampaignConfig(opts_, spec_);
        std::ostringstream sk;
        sk << "seq;seqdom=" << (colOpts_.seq ? 1 : 0)
           << ";seqtf=" << (colOpts_.seqTimeFrame ? 1 : 0)
           << ";lanes=" << st_.lanes;
        h.shapeKey = sk.str();
        return h;
    }

    std::vector<std::uint8_t>
    encodePayload(std::uint64_t cursor) const override
    {
        shard_detail::SeqPayload p = tailPayload();
        const std::vector<std::uint8_t> done = doneClasses(cursor);
        for (std::size_t k = 0; k < col_.classOf.size(); ++k) {
            const std::size_t c = static_cast<std::size_t>(col_.classOf[k]);
            if (!done[c])
                continue;
            const RepVerdict &rv = verdicts_[c];
            shard_detail::SeqRecord rec;
            rec.faultIndex = static_cast<std::uint32_t>(k);
            rec.outcome = static_cast<std::uint8_t>(rv.outcome);
            rec.firstAlarm = rv.firstAlarm;
            rec.firstEscape = rv.firstEscape;
            rec.alarmLanes = rv.alarmLanes;
            rec.latSum = rv.latSum;
            rec.latHist = rv.latHist;
            p.records.push_back(rec);
        }
        return shard_detail::encodeSeqPayload(p);
    }

    void
    restorePayload(const std::vector<std::uint8_t> &payload,
                   std::uint64_t cursor, const std::string &name) override
    {
        const shard_detail::SeqPayload p =
            shard_detail::decodeSeqPayload(payload, name);
        std::vector<std::uint32_t> index;
        for (const shard_detail::SeqRecord &rec : p.records)
            index.push_back(rec.faultIndex);
        shard_detail::checkResumedCoverage(index, col_.classOf,
                                           doneClasses(cursor), name);
        for (const shard_detail::SeqRecord &rec : p.records)
            verdicts_[static_cast<std::size_t>(
                col_.classOf[rec.faultIndex])] = fromRecord(rec);
        periodsSimulated_ = static_cast<long>(p.periodsSimulated);
        periodsSkipped_ = static_cast<long>(p.periodsSkipped);
        retiredEarly_ = static_cast<long>(p.retiredEarly);
    }

    /** The inline run's merge: class verdicts over allFaults(). */
    SeqCampaignResult
    result() const
    {
        const std::vector<Fault> faults = net_.allFaults();
        SeqCampaignResult r = emptyResult(faults, opts_, st_);
        std::vector<const RepVerdict *> verdictOf(faults.size());
        for (std::size_t k = 0; k < faults.size(); ++k)
            verdictOf[k] =
                &verdicts_[static_cast<std::size_t>(col_.classOf[k])];
        finalizeSeqResult(r, verdictOf);
        fillTail(r, tailPayload());
        return r;
    }

  private:
    SeqCampaignOptions
    resolvedOptions() const
    {
        SeqCampaignOptions o = opts_;
        o.lanes = st_.lanes;
        return o;
    }

    bool isPruned(std::size_t r) const
    {
        return !col_.pruned.empty() && col_.pruned[r];
    }
    bool inSlice(std::size_t r) const { return r >= c0_ && r < c1_; }

    /** Classes settled by units [0, cursor): the slice's pruned
     *  classes plus the members of the batches so far. */
    std::vector<std::uint8_t>
    doneClasses(std::uint64_t cursor) const
    {
        std::vector<std::uint8_t> done(verdicts_.size(), 0);
        for (std::size_t r = c0_; r < c1_; ++r)
            done[r] = isPruned(r);
        for (std::uint64_t b = 0; b < cursor; ++b)
            for (const int m : sb_.plan.batches[b])
                done[static_cast<std::size_t>(
                    sb_.siteRep[static_cast<std::size_t>(m)])] = 1;
        return done;
    }

    shard_detail::SeqPayload
    tailPayload() const
    {
        shard_detail::SeqPayload p;
        p.symbols = opts_.symbols;
        p.lanes = st_.lanes;
        p.simd = sim::simdTargetName(
            sim::wideKernels(st_.laneWords, st_.simd).target);
        p.periodsSimulated = periodsSimulated_;
        p.periodsSkipped = periodsSkipped_;
        p.retiredEarly = retiredEarly_;
        p.classes = static_cast<int>(col_.representatives.size());
        p.prunedClasses = col_.prunedClasses;
        p.prunedFaults = col_.prunedFaults;
        p.batchedClasses = static_cast<int>(sb_.sites.size());
        p.batches = static_cast<int>(sb_.plan.batches.size());
        return p;
    }

    const Netlist &net_;
    const SeqCampaignSpec &spec_;
    const SeqCampaignOptions &opts_;
    const SeqStream st_;
    const SeqCampaignOptions ropts_; ///< opts_ with lanes resolved
    std::vector<std::uint8_t> hold_;
    const ResolvedSpec rs_;
    const CollapseOptions colOpts_;
    const CollapseResult col_;
    const sim::FlatNetlist flat_;
    sim::SeqGoodTrace trace_;
    std::size_t c0_ = 0, c1_ = 0;
    SeqBatches sb_;
    std::uint64_t faultsInSlice_ = 0;
    /** Per class id; valid for the classes classified so far. */
    std::vector<RepVerdict> verdicts_;
    long periodsSimulated_ = 0;
    long periodsSkipped_ = 0;
    long retiredEarly_ = 0;
};

} // namespace

std::vector<std::vector<std::uint64_t>>
buildSymbolWords(int num_inputs, int phi_input, long symbols,
                 std::uint64_t seed, int lane_words)
{
    util::Rng rng(seed);
    std::vector<std::vector<std::uint64_t>> words(
        static_cast<std::size_t>(symbols));
    for (auto &w : words) {
        w.assign(static_cast<std::size_t>(num_inputs) * lane_words, 0);
        for (int i = 0; i < num_inputs; ++i)
            if (i != phi_input)
                for (int ww = 0; ww < lane_words; ++ww)
                    w[static_cast<std::size_t>(i) * lane_words + ww] =
                        rng.next();
    }
    return words;
}

SeqCampaignResult
runSequentialCampaign(const Netlist &net, const SeqCampaignSpec &spec,
                      const SeqCampaignOptions &opts)
{
    SeqSlice work(net, spec, opts, {});
    const ShardOutcome out = shard_detail::runSlices(
        work, {}, {}, /*publish=*/false, shard_detail::engineOptions(opts),
        opts.cancel);
    SeqCampaignResult result = work.result();
    result.stats = out.stats;
    return result;
}

ShardOutcome
runSequentialCampaignShard(const Netlist &net,
                           const SeqCampaignSpec &spec,
                           const SeqCampaignOptions &opts,
                           const engine::ShardSpec &shard,
                           const CheckpointOptions &ckpt)
{
    SeqSlice work(net, spec, opts, shard);
    return shard_detail::runSlices(work, shard, ckpt, /*publish=*/true,
                                   shard_detail::engineOptions(opts),
                                   opts.cancel);
}

SeqCampaignResult
mergeSeqCampaignPartials(const netlist::Netlist &net,
                         const std::vector<std::vector<std::uint8_t>> &partials,
                         const std::vector<std::string> &names)
{
    using shard_detail::partialName;
    std::vector<std::vector<std::uint8_t>> payloads;
    shard_detail::validatePartials("seq", netlist::contentHash(net),
                                   partials, names, &payloads);

    const std::vector<Fault> faults = net.allFaults();
    SeqCampaignResult result;
    result.faults.resize(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k)
        result.faults[k].fault = faults[k];

    // Per-fault verdicts by global index, folded below in fault order
    // with the inline run's fold, so the histogram / mean double
    // division come out bit-identical.
    std::vector<RepVerdict> verdicts(faults.size());
    std::vector<std::uint8_t> covered(faults.size(), 0);
    shard_detail::SeqPayload tail; // globals take-first, work summed
    for (std::size_t i = 0; i < partials.size(); ++i) {
        const std::string name = partialName(names, i);
        const shard_detail::SeqPayload p =
            shard_detail::decodeSeqPayload(payloads[i], name);
        if (i == 0) {
            result.symbols = p.symbols;
            result.lanes = p.lanes;
            result.simd = shard_detail::parseSimdName(p.simd, name);
            tail.classes = p.classes;
            tail.prunedClasses = p.prunedClasses;
            tail.prunedFaults = p.prunedFaults;
        } else if (p.symbols != result.symbols || p.lanes != result.lanes) {
            throw engine::SnapshotError(
                name + ": symbol/lane header disagrees with " +
                partialName(names, 0));
        }
        tail.periodsSimulated += p.periodsSimulated;
        tail.periodsSkipped += p.periodsSkipped;
        tail.retiredEarly += p.retiredEarly;
        tail.batchedClasses += p.batchedClasses;
        tail.batches += p.batches;
        for (const shard_detail::SeqRecord &rec : p.records) {
            shard_detail::coverFault(covered, rec.faultIndex, name);
            verdicts[rec.faultIndex] = fromRecord(rec);
        }
    }
    shard_detail::checkAllCovered(covered);

    std::vector<const RepVerdict *> verdictOf(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k)
        verdictOf[k] = &verdicts[k];
    finalizeSeqResult(result, verdictOf);
    fillTail(result, tail);
    result.stats = shard_detail::mergedStats(
        faults.size(),
        static_cast<std::uint64_t>(tail.classes - tail.prunedClasses),
        static_cast<std::uint64_t>(result.symbols) *
            static_cast<std::uint64_t>(result.lanes));
    return result;
}

SeqCampaignResult
referenceSequentialCampaign(const Netlist &net,
                            const SeqCampaignSpec &spec,
                            const SeqCampaignOptions &opts)
{
    const SeqStream st = resolveSeqStream(opts);
    SeqCampaignOptions ropts = opts;
    ropts.lanes = st.lanes;
    std::vector<std::uint8_t> hold;
    const ResolvedSpec rs = resolveSeqSpec(net, spec, st.lanes, &hold);
    const sim::FlatNetlist flat(net);
    sim::SeqGoodTrace trace(flat, spec.phiInput, st.laneWords, st.simd);
    buildTrace(trace, net.numInputs(), spec, rs, hold, ropts);

    const std::vector<Fault> faults = net.allFaults();
    engine::EngineOptions eopts = shard_detail::engineOptions(opts);
    eopts.jobs = 1;
    engine::CampaignEngine eng(eopts);
    eng.beginCampaign(faults.size());
    const std::vector<RepVerdict> verdicts = classifySeqChunk(
        trace, rs, faults, 0, faults.size(), ropts, &eng.progress());

    SeqCampaignResult result = emptyResult(faults, opts, st);
    std::vector<const RepVerdict *> verdictOf(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k) {
        verdictOf[k] = &verdicts[k];
        result.periodsSimulated += verdicts[k].periodsSimulated;
        result.periodsSkipped += verdicts[k].periodsSkipped;
    }
    finalizeSeqResult(result, verdictOf);
    result.stats = eng.endCampaign(
        faults.size(), faults.size(),
        static_cast<std::uint64_t>(opts.symbols) *
            static_cast<std::uint64_t>(st.lanes));
    return result;
}

} // namespace scal::fault
