#include "fault/campaign.hh"

#include <stdexcept>
#include <utility>

#include "engine/campaign_engine.hh"
#include "fault/collapse.hh"
#include "fault/report.hh"
#include "fault/shard.hh"
#include "netlist/io.hh"
#include "sim/alternating.hh"
#include "sim/batch_sim.hh"
#include "sim/fault_sim.hh"
#include "sim/flat.hh"
#include "util/rng.hh"

namespace scal::fault
{

using namespace netlist;

namespace
{

/** Per-fault verdict accumulated over the whole pattern space. */
struct Verdict
{
    bool tested = false;
    bool unsafe = false;
    std::vector<std::uint64_t> unsafePatterns;
};

/**
 * One packed input block (64 * laneWords lanes) with its per-lane
 * patterns. Built once before fan-out and shared read-only by every
 * worker, so the good-value simulation and the Rng draw happen
 * exactly once per pattern regardless of the chunk count. Lane l of
 * input i lives at bit (l % 64) of word i*W + l/64, so lanes are
 * always in ascending global-pattern order — the invariant that makes
 * verdicts (and kept unsafe examples) identical at every width.
 */
struct PatternBlock
{
    std::vector<std::uint64_t> in; ///< per-input lane blocks (ni * W)
    /** Raw per-lane pattern words (sampled mode only; exhaustive
     *  patterns are first + lane). */
    std::vector<std::uint64_t> base;
    std::uint64_t first = 0;
    int lanes = 64;

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

    std::uint64_t
    patternAt(int lane) const
    {
        return base.empty() ? first + static_cast<std::uint64_t>(lane)
                            : base[lane];
    }
};

/** Serial pre-pass: the packed pattern stream. The Rng consumption
 *  order matches the original serial loop exactly (one draw per
 *  sampled pattern, in pattern order, independent of lane_words); the
 *  fault-free values are cached per worker by
 *  FaultSimulator::setAlternatingBlock. */
std::vector<PatternBlock>
buildBlocks(int ni, bool exhaustive, std::uint64_t num_patterns,
            std::uint64_t seed, int lane_words)
{
    util::Rng rng(seed);

    const std::uint64_t block_lanes =
        static_cast<std::uint64_t>(64) * lane_words;
    std::vector<PatternBlock> blocks;
    blocks.reserve(static_cast<std::size_t>(
        (num_patterns + block_lanes - 1) / block_lanes));
    for (std::uint64_t base = 0; base < num_patterns;
         base += block_lanes) {
        PatternBlock blk;
        blk.first = base;
        blk.lanes = static_cast<int>(
            std::min<std::uint64_t>(block_lanes, num_patterns - base));
        blk.in.assign(static_cast<std::size_t>(ni) * lane_words, 0);
        if (!exhaustive)
            blk.base.resize(blk.lanes);
        for (int lane = 0; lane < blk.lanes; ++lane) {
            const std::uint64_t pat =
                exhaustive ? base + lane : rng.next();
            if (!exhaustive)
                blk.base[lane] = pat;
            const std::size_t word = static_cast<std::size_t>(lane) / 64;
            const std::uint64_t bit = std::uint64_t{1} << (lane % 64);
            for (int i = 0; i < ni; ++i)
                if ((pat >> i) & 1)
                    blk.in[static_cast<std::size_t>(i) * lane_words +
                           word] |= bit;
        }
        blocks.push_back(std::move(blk));
    }
    return blocks;
}

/**
 * Fold one block's lane masks into a fault's running verdict — the
 * single copy of the kernel the pipeline and the reference run.
 */
void
accumulateVerdict(const sim::WideMasks &m, const PatternBlock &blk,
                  int lane_words, const CampaignOptions &opts,
                  engine::ProgressTracker *progress, Verdict &v)
{
    bool any_err = false, any_unsafe = false;
    for (int w = 0; w < lane_words; ++w) {
        const std::uint64_t lm = blk.laneMask(w);
        if (m.anyErr[static_cast<std::size_t>(w)] & lm)
            any_err = true;
        if (m.unsafeWord(w) & lm)
            any_unsafe = true;
    }
    if (any_err)
        v.tested = true;
    if (any_unsafe) {
        if (!v.unsafe && progress)
            progress->addUnsafe(1);
        v.unsafe = true;
        for (int lane = 0; lane < blk.lanes; ++lane) {
            if (static_cast<int>(v.unsafePatterns.size()) >=
                opts.keepUnsafeExamples)
                break;
            if ((m.unsafeWord(lane / 64) >> (lane % 64)) & 1)
                v.unsafePatterns.push_back(blk.patternAt(lane));
        }
    }
}

/**
 * Classify faults[begin, end) one fault at a time over the shared
 * pattern blocks with the cone-restricted simulator: the per-fault
 * loop of referenceAlternatingCampaign.
 */
std::vector<Verdict>
classifyChunk(const sim::FlatNetlist &flat,
              const std::vector<Fault> &faults, std::size_t begin,
              std::size_t end, const std::vector<PatternBlock> &blocks,
              const CampaignOptions &opts, int lane_words,
              engine::ProgressTracker *progress)
{
    sim::FaultSimulator fs(flat, lane_words, opts.simd);

    std::vector<Verdict> out(end - begin);
    for (const PatternBlock &blk : blocks) {
        fs.setAlternatingBlock(blk.in);
        for (std::size_t k = begin; k < end; ++k) {
            if (opts.cancel && opts.cancel->stopRequested())
                throw engine::CampaignCancelled();
            accumulateVerdict(fs.classifyAlternatingWide(faults[k]), blk,
                              lane_words, opts, progress,
                              out[k - begin]);
        }
        if (progress)
            progress->addPatterns(static_cast<std::uint64_t>(blk.lanes));
    }
    if (progress)
        progress->addFaultsDone(end - begin);
    return out;
}

/** Result of one chunk: per-class verdicts for the positions
 *  [plan.classOffset(begin), plan.classOffset(end)) of its group
 *  range, plus its batch count. */
struct GroupChunkOut
{
    std::vector<Verdict> verdicts;
    std::uint64_t batches = 0;
};

/**
 * Classify every class of groups [gbegin, gend) of @p plan over the
 * shared pattern blocks with a BatchClassifier. Each call owns its
 * simulator and classifier (and so its memoized cones and scratch);
 * everything else it reads is immutable, so a class verdict cannot
 * depend on which chunk simulated it.
 */
GroupChunkOut
classifyGroupChunk(const sim::FlatNetlist &flat,
                   const sim::FaultBatchPlan &plan, int gbegin, int gend,
                   const std::vector<PatternBlock> &blocks,
                   const CampaignOptions &opts, int lane_words,
                   engine::ProgressTracker *progress)
{
    sim::FaultSimulator fs(flat, lane_words, opts.simd);
    sim::BatchClassifier classifier(fs, plan, opts.faultBatch);
    classifier.setRange(gbegin, gend);

    GroupChunkOut out;
    out.batches = classifier.numBatches();
    const std::size_t base = plan.classOffset(gbegin);
    out.verdicts.resize(plan.classOffset(gend) - base);
    for (const PatternBlock &blk : blocks) {
        if (opts.cancel && opts.cancel->stopRequested())
            throw engine::CampaignCancelled();
        fs.setAlternatingBlock(blk.in);
        classifier.classifyBlock(
            [&](std::size_t pos, const sim::WideMasks &m) {
                accumulateVerdict(m, blk, lane_words, opts, progress,
                                  out.verdicts[pos - base]);
            });
        if (progress)
            progress->addPatterns(static_cast<std::uint64_t>(blk.lanes));
    }
    if (progress)
        progress->addFaultsDone(out.verdicts.size());
    return out;
}

Outcome
outcomeOf(const Verdict &v)
{
    return v.unsafe ? Outcome::Unsafe
                    : v.tested ? Outcome::Detected : Outcome::Untestable;
}

/** Per-fault verdicts in allFaults() order -> the result counters:
 *  the one fold of the inline run, the merge and the reference. */
void
countOutcomes(CampaignResult &result)
{
    for (const FaultResult &fr : result.faults) {
        switch (fr.outcome) {
          case Outcome::Untestable: ++result.numUntestable; break;
          case Outcome::Detected:   ++result.numDetected; break;
          case Outcome::Unsafe:     ++result.numUnsafe; break;
        }
    }
}

/** The checked pattern stream of a campaign: size, width, kernels. */
struct Stream
{
    std::uint64_t numPatterns = 0;
    bool exhaustive = false;
    sim::SimdTarget simd = sim::SimdTarget::Portable;
    int laneWords = 1;
};

Stream
resolveStream(const Netlist &net, const CampaignOptions &opts)
{
    if (!net.isCombinational())
        throw std::invalid_argument("campaign needs combinational netlist");
    if (opts.checkAlternating && net.numInputs() <= 20 &&
        !sim::isAlternatingNetwork(net))
        throw std::invalid_argument(
            "campaign target is not an alternating network "
            "(some output is not self-dual)");
    if (opts.lanes != 0 && opts.lanes != 64 && opts.lanes != 256 &&
        opts.lanes != 512)
        throw std::invalid_argument("lanes must be 0 (auto), 64, 256 or 512");

    const int ni = net.numInputs();
    Stream st;
    st.exhaustive = ni < 63 && (std::uint64_t{1} << ni) <= opts.maxPatterns;
    st.numPatterns =
        st.exhaustive ? (std::uint64_t{1} << ni) : opts.maxPatterns;
    // Resolve the packed width and kernel build once, up front, so
    // every worker runs the same configuration.
    st.simd = sim::resolveSimdTarget(opts.simd);
    st.laneWords = opts.lanes == 0 ? sim::defaultLaneWords(st.simd)
                                   : sim::laneWordsForLanes(opts.lanes);
    return st;
}

/** A result with the fault list and stream identity filled in. */
CampaignResult
emptyResult(const std::vector<Fault> &faults, const Stream &st)
{
    CampaignResult result;
    result.faults.resize(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k)
        result.faults[k].fault = faults[k];
    result.patternsApplied = st.numPatterns;
    result.lanes = 64 * st.laneWords;
    result.simd = st.simd;
    return result;
}

/**
 * One shard of the comb pipeline. The plan — collapsed classes
 * (const-refined chains plus dominance pruning), the FFR batch plan
 * and its per-group costs — is a pure function of (netlist, knobs),
 * so every process derives the same group space; the shard owns a
 * cost-weighted contiguous slice of it. Groups are the work units:
 * batches never straddle a group, and groups map to contiguous class
 * positions. Class verdicts are batch-composition-independent, which
 * is what licenses re-planning per shard.
 */
class CombSlice : public shard_detail::SliceWork
{
  public:
    CombSlice(const Netlist &net, const CampaignOptions &opts,
              const engine::ShardSpec &shard)
        : net_(net), opts_(opts), st_(resolveStream(net, opts)),
          faults_(net.allFaults()), flat_(net),
          blocks_(buildBlocks(net.numInputs(), st_.exhaustive,
                              st_.numPatterns, opts.seed, st_.laneWords)),
          col_(collapseFaults(
              net, {.constRefine = true, .dominance = true})),
          plan_(flat_, faults_, col_.classOf, col_.representatives,
                col_.pruned, opts.cpt),
          verdicts_(static_cast<std::size_t>(plan_.numClasses()))
    {
        // Cost-weighted split: each shard owns ~equal simulation work
        // instead of equal group counts.
        const engine::Chunk slice =
            engine::shardSliceWeighted(plan_.groupCosts(), shard);
        g0_ = static_cast<int>(slice.begin);
        g1_ = static_cast<int>(slice.end);
        const std::vector<std::uint8_t> inSlice = doneClasses(units());
        for (std::size_t r = 0; r < inSlice.size(); ++r)
            if (inSlice[r] && (col_.pruned.empty() || !col_.pruned[r]))
                ++simulated_;
        for (const int c : col_.classOf)
            faultsInSlice_ += inSlice[static_cast<std::size_t>(c)];
    }

    std::uint64_t units() const override
    {
        return static_cast<std::uint64_t>(g1_ - g0_);
    }
    std::uint64_t classesIn(std::uint64_t u0,
                            std::uint64_t u1) const override
    {
        return plan_.classOffset(g0_ + static_cast<int>(u1)) -
               plan_.classOffset(g0_ + static_cast<int>(u0));
    }
    std::uint64_t faults() const override { return faultsInSlice_; }
    std::uint64_t simulatedClasses() const override { return simulated_; }
    std::uint64_t patterns() const override { return st_.numPatterns; }

    void
    classify(engine::CampaignEngine &eng, std::uint64_t u0,
             std::uint64_t u1) override
    {
        const int gb = g0_ + static_cast<int>(u0);
        const std::vector<std::uint64_t> costs(
            plan_.groupCosts().begin() + gb,
            plan_.groupCosts().begin() + g0_ + static_cast<long>(u1));
        std::vector<GroupChunkOut> outs = eng.mapWeightedChunks<GroupChunkOut>(
            costs, [&](engine::Chunk chunk, std::size_t) {
                return classifyGroupChunk(
                    flat_, plan_, gb + static_cast<int>(chunk.begin),
                    gb + static_cast<int>(chunk.end), blocks_, opts_,
                    st_.laneWords, &eng.progress());
            });
        // Chunk results concatenate back to the position order of
        // plan.classList(), which maps positions to class ids.
        std::size_t pos = plan_.classOffset(gb);
        for (GroupChunkOut &co : outs) {
            batches_ += co.batches;
            for (Verdict &v : co.verdicts)
                verdicts_[static_cast<std::size_t>(
                    plan_.classList()[pos++])] = std::move(v);
        }
    }

    engine::SnapshotHeader
    identity() const override
    {
        engine::SnapshotHeader h;
        h.kind = "comb";
        h.netHash = netlist::contentHash(net_);
        h.configKey = canonicalCampaignConfig(opts_);
        h.shapeKey = std::string("comb;fb=") +
                     (opts_.faultBatch ? '1' : '0') + ";cpt=" +
                     (opts_.cpt ? '1' : '0');
        return h;
    }

    std::vector<std::uint8_t>
    encodePayload(std::uint64_t cursor) const override
    {
        shard_detail::CombPayload p;
        p.patternsApplied = st_.numPatterns;
        p.lanes = 64 * st_.laneWords;
        p.simd = sim::simdTargetName(st_.simd);
        p.fp = tail();
        const std::vector<std::uint8_t> done = doneClasses(cursor);
        for (std::size_t k = 0; k < faults_.size(); ++k) {
            const std::size_t c = static_cast<std::size_t>(col_.classOf[k]);
            if (!done[c])
                continue;
            shard_detail::CombRecord rec;
            rec.faultIndex = static_cast<std::uint32_t>(k);
            rec.outcome = static_cast<std::uint8_t>(outcomeOf(verdicts_[c]));
            rec.unsafePatterns = verdicts_[c].unsafePatterns;
            p.records.push_back(std::move(rec));
        }
        return shard_detail::encodeCombPayload(p);
    }

    void
    restorePayload(const std::vector<std::uint8_t> &payload,
                   std::uint64_t cursor, const std::string &name) override
    {
        shard_detail::CombPayload p =
            shard_detail::decodeCombPayload(payload, name);
        std::vector<std::uint32_t> index;
        for (const shard_detail::CombRecord &rec : p.records)
            index.push_back(rec.faultIndex);
        shard_detail::checkResumedCoverage(index, col_.classOf,
                                           doneClasses(cursor), name);
        for (shard_detail::CombRecord &rec : p.records) {
            Verdict &v = verdicts_[static_cast<std::size_t>(
                col_.classOf[rec.faultIndex])];
            const Outcome o = static_cast<Outcome>(rec.outcome);
            v.unsafe = o == Outcome::Unsafe;
            v.tested = o != Outcome::Untestable;
            v.unsafePatterns = std::move(rec.unsafePatterns);
        }
        batches_ = p.fp.batches;
    }

    /** The inline run's merge: class verdicts over allFaults(). */
    CampaignResult
    result() const
    {
        CampaignResult r = emptyResult(faults_, st_);
        for (std::size_t k = 0; k < faults_.size(); ++k) {
            const Verdict &v =
                verdicts_[static_cast<std::size_t>(col_.classOf[k])];
            r.faults[k].outcome = outcomeOf(v);
            r.faults[k].unsafePatterns = v.unsafePatterns;
        }
        countOutcomes(r);
        r.fp = tail();
        return r;
    }

  private:
    /** The fault-parallel tail of this shard. */
    FaultParallelStats
    tail() const
    {
        const sim::BatchPlanStats ps = plan_.stats();
        FaultParallelStats fp;
        fp.enabled = true;
        fp.totalFaults = static_cast<int>(faults_.size());
        fp.classes = plan_.numClasses();
        fp.prunedClasses = ps.prunedClasses;
        fp.prunedFaults = col_.prunedFaults;
        fp.flipClasses = ps.flipClasses;
        fp.cptClasses = ps.cptClasses;
        fp.tapClasses = ps.tapClasses;
        fp.simClasses = ps.simClasses;
        fp.batches = batches_;
        return fp;
    }

    /** Classes settled by units (groups) [0, cursor) of the slice. */
    std::vector<std::uint8_t>
    doneClasses(std::uint64_t cursor) const
    {
        std::vector<std::uint8_t> done(verdicts_.size(), 0);
        for (std::size_t p = plan_.classOffset(g0_);
             p < plan_.classOffset(g0_ + static_cast<int>(cursor)); ++p)
            done[static_cast<std::size_t>(plan_.classList()[p])] = 1;
        return done;
    }

    const Netlist &net_;
    const CampaignOptions &opts_;
    const Stream st_;
    const std::vector<Fault> faults_;
    const sim::FlatNetlist flat_;
    const std::vector<PatternBlock> blocks_;
    const CollapseResult col_;
    const sim::FaultBatchPlan plan_;
    int g0_ = 0, g1_ = 0;
    std::uint64_t simulated_ = 0;
    std::uint64_t faultsInSlice_ = 0;
    /** Per class id; valid for the classes classified so far. */
    std::vector<Verdict> verdicts_;
    std::uint64_t batches_ = 0;
};

} // namespace

CampaignResult
runAlternatingCampaign(const Netlist &net, const CampaignOptions &opts)
{
    CombSlice work(net, opts, {});
    const ShardOutcome out = shard_detail::runSlices(
        work, {}, {}, /*publish=*/false, shard_detail::engineOptions(opts),
        opts.cancel);
    CampaignResult result = work.result();
    result.stats = out.stats;
    return result;
}

ShardOutcome
runAlternatingCampaignShard(const Netlist &net,
                            const CampaignOptions &opts,
                            const engine::ShardSpec &shard,
                            const CheckpointOptions &ckpt)
{
    CombSlice work(net, opts, shard);
    return shard_detail::runSlices(work, shard, ckpt, /*publish=*/true,
                                   shard_detail::engineOptions(opts),
                                   opts.cancel);
}

CampaignResult
mergeCampaignPartials(const netlist::Netlist &net,
                      const std::vector<std::vector<std::uint8_t>> &partials,
                      const std::vector<std::string> &names)
{
    using shard_detail::partialName;
    std::vector<std::vector<std::uint8_t>> payloads;
    shard_detail::validatePartials("comb", netlist::contentHash(net),
                                   partials, names, &payloads);

    const std::vector<Fault> faults = net.allFaults();
    CampaignResult result;
    result.faults.resize(faults.size());
    for (std::size_t k = 0; k < faults.size(); ++k)
        result.faults[k].fault = faults[k];

    // Fill per-fault verdicts by global index, exactly once.
    std::vector<std::uint8_t> covered(faults.size(), 0);
    for (std::size_t i = 0; i < partials.size(); ++i) {
        const std::string name = partialName(names, i);
        shard_detail::CombPayload p =
            shard_detail::decodeCombPayload(payloads[i], name);
        if (i == 0) {
            result.patternsApplied = p.patternsApplied;
            result.lanes = p.lanes;
            result.simd = shard_detail::parseSimdName(p.simd, name);
        } else if (p.patternsApplied != result.patternsApplied ||
                   p.lanes != result.lanes) {
            throw engine::SnapshotError(
                name + ": pattern/lane header disagrees with " +
                partialName(names, 0));
        }
        if (i == 0)
            result.fp = p.fp;
        else
            result.fp.batches += p.fp.batches;
        for (shard_detail::CombRecord &rec : p.records) {
            shard_detail::coverFault(covered, rec.faultIndex, name);
            FaultResult &fr = result.faults[rec.faultIndex];
            fr.outcome = static_cast<Outcome>(rec.outcome);
            fr.unsafePatterns = std::move(rec.unsafePatterns);
        }
    }
    shard_detail::checkAllCovered(covered);

    countOutcomes(result);
    result.fp.enabled = true;
    result.fp.totalFaults = static_cast<int>(faults.size());
    result.stats = shard_detail::mergedStats(
        faults.size(),
        static_cast<std::uint64_t>(result.fp.classes -
                                   result.fp.prunedClasses),
        result.patternsApplied);
    return result;
}

CampaignResult
referenceAlternatingCampaign(const Netlist &net,
                             const CampaignOptions &opts)
{
    const Stream st = resolveStream(net, opts);
    const std::vector<Fault> faults = net.allFaults();
    const sim::FlatNetlist flat(net);
    const std::vector<PatternBlock> blocks = buildBlocks(
        net.numInputs(), st.exhaustive, st.numPatterns, opts.seed,
        st.laneWords);

    engine::EngineOptions eopts = shard_detail::engineOptions(opts);
    eopts.jobs = 1;
    engine::CampaignEngine eng(eopts);
    eng.beginCampaign(faults.size());
    const std::vector<Verdict> verdicts =
        classifyChunk(flat, faults, 0, faults.size(), blocks, opts,
                      st.laneWords, &eng.progress());

    CampaignResult result = emptyResult(faults, st);
    for (std::size_t k = 0; k < faults.size(); ++k) {
        result.faults[k].outcome = outcomeOf(verdicts[k]);
        result.faults[k].unsafePatterns = verdicts[k].unsafePatterns;
    }
    countOutcomes(result);
    result.stats =
        eng.endCampaign(faults.size(), faults.size(), st.numPatterns);
    return result;
}

} // namespace scal::fault
