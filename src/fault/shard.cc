#include "fault/shard.hh"

#include <algorithm>

#include "sim/simd.hh"

namespace scal::fault
{

using engine::ByteReader;
using engine::ByteWriter;
using engine::SnapshotError;
using engine::SnapshotHeader;

namespace shard_detail
{

std::vector<std::uint8_t>
encodeCombPayload(const CombPayload &p)
{
    ByteWriter w;
    w.u64(p.patternsApplied);
    w.u32(static_cast<std::uint32_t>(p.lanes));
    w.str(p.simd);
    for (const int c : {p.fp.classes, p.fp.prunedClasses,
                        p.fp.prunedFaults, p.fp.flipClasses,
                        p.fp.cptClasses, p.fp.tapClasses,
                        p.fp.simClasses})
        w.u32(static_cast<std::uint32_t>(c));
    w.u64(p.fp.batches);
    w.u32(static_cast<std::uint32_t>(p.records.size()));
    for (const CombRecord &r : p.records) {
        w.u32(r.faultIndex);
        w.u8(r.outcome);
        w.u32(static_cast<std::uint32_t>(r.unsafePatterns.size()));
        for (const std::uint64_t pat : r.unsafePatterns)
            w.u64(pat);
    }
    return w.take();
}

CombPayload
decodeCombPayload(const std::vector<std::uint8_t> &bytes,
                  const std::string &name)
{
    ByteReader r(bytes);
    CombPayload p;
    p.patternsApplied = r.u64();
    p.lanes = static_cast<int>(r.u32());
    p.simd = r.str();
    for (int *c : {&p.fp.classes, &p.fp.prunedClasses,
                   &p.fp.prunedFaults, &p.fp.flipClasses,
                   &p.fp.cptClasses, &p.fp.tapClasses,
                   &p.fp.simClasses})
        *c = static_cast<int>(r.u32());
    p.fp.batches = r.u64();
    const std::uint32_t n = r.u32();
    p.records.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        CombRecord &rec = p.records[i];
        rec.faultIndex = r.u32();
        rec.outcome = r.u8();
        const std::uint32_t nu = r.u32();
        rec.unsafePatterns.resize(nu);
        for (std::uint32_t j = 0; j < nu; ++j)
            rec.unsafePatterns[j] = r.u64();
        if (rec.outcome > 2)
            throw SnapshotError(name + ": bad outcome byte at record " +
                                std::to_string(i));
    }
    if (!r.atEnd())
        throw SnapshotError(name + ": trailing payload bytes at byte " +
                            std::to_string(r.offset()));
    return p;
}

std::vector<std::uint8_t>
encodeSeqPayload(const SeqPayload &p)
{
    ByteWriter w;
    w.i64(p.symbols);
    w.u32(static_cast<std::uint32_t>(p.lanes));
    w.str(p.simd);
    w.i64(p.periodsSimulated);
    w.i64(p.periodsSkipped);
    w.i64(p.retiredEarly);
    w.u32(static_cast<std::uint32_t>(p.classes));
    w.u32(static_cast<std::uint32_t>(p.prunedClasses));
    w.u32(static_cast<std::uint32_t>(p.prunedFaults));
    w.u32(static_cast<std::uint32_t>(p.batchedClasses));
    w.u32(static_cast<std::uint32_t>(p.batches));
    w.u32(static_cast<std::uint32_t>(p.records.size()));
    for (const SeqRecord &r : p.records) {
        w.u32(r.faultIndex);
        w.u8(r.outcome);
        w.i64(r.firstAlarm);
        w.i64(r.firstEscape);
        w.u64(r.alarmLanes);
        w.u64(r.latSum);
        for (const std::uint64_t h : r.latHist)
            w.u64(h);
    }
    return w.take();
}

SeqPayload
decodeSeqPayload(const std::vector<std::uint8_t> &bytes,
                 const std::string &name)
{
    ByteReader r(bytes);
    SeqPayload p;
    p.symbols = r.i64();
    p.lanes = static_cast<int>(r.u32());
    p.simd = r.str();
    p.periodsSimulated = r.i64();
    p.periodsSkipped = r.i64();
    p.retiredEarly = r.i64();
    p.classes = static_cast<int>(r.u32());
    p.prunedClasses = static_cast<int>(r.u32());
    p.prunedFaults = static_cast<int>(r.u32());
    p.batchedClasses = static_cast<int>(r.u32());
    p.batches = static_cast<int>(r.u32());
    const std::uint32_t n = r.u32();
    p.records.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        SeqRecord &rec = p.records[i];
        rec.faultIndex = r.u32();
        rec.outcome = r.u8();
        rec.firstAlarm = r.i64();
        rec.firstEscape = r.i64();
        rec.alarmLanes = r.u64();
        rec.latSum = r.u64();
        for (auto &h : rec.latHist)
            h = r.u64();
        if (rec.outcome > 2)
            throw SnapshotError(name + ": bad outcome byte at record " +
                                std::to_string(i));
    }
    if (!r.atEnd())
        throw SnapshotError(name + ": trailing payload bytes at byte " +
                            std::to_string(r.offset()));
    return p;
}

std::string
partialName(const std::vector<std::string> &names, std::size_t i)
{
    return i < names.size() ? names[i]
                            : "partial " + std::to_string(i + 1);
}

std::vector<SnapshotHeader>
validatePartials(const std::string &kind, std::uint64_t net_hash,
                 const std::vector<std::vector<std::uint8_t>> &partials,
                 const std::vector<std::string> &names,
                 std::vector<std::vector<std::uint8_t>> *payloads)
{
    if (partials.empty())
        throw SnapshotError("merge: no partial files given");
    std::vector<SnapshotHeader> hdrs;
    payloads->resize(partials.size());
    for (std::size_t i = 0; i < partials.size(); ++i) {
        const std::string name = partialName(names, i);
        SnapshotHeader h =
            engine::decodeSnapshot(partials[i], &(*payloads)[i], name);
        if (h.kind != kind)
            throw SnapshotError(name + ": kind '" + h.kind +
                                "' does not match campaign kind '" +
                                kind + "'");
        if (h.netHash != net_hash)
            throw SnapshotError(name +
                                ": netlist content hash mismatch (file " +
                                std::to_string(h.netHash) + ", circuit " +
                                std::to_string(net_hash) + ")");
        if (!h.complete)
            throw SnapshotError(
                name + ": incomplete shard (cursor " +
                std::to_string(h.cursor) + "/" + std::to_string(h.units) +
                "); finish or resume it before merging");
        hdrs.push_back(std::move(h));
    }
    const SnapshotHeader &first = hdrs.front();
    // Check the split size before sizing anything by it.
    if (static_cast<std::size_t>(first.shard.count) != hdrs.size())
        throw SnapshotError(
            "merge: got " + std::to_string(hdrs.size()) +
            " partials for an N=" + std::to_string(first.shard.count) +
            " split");
    std::vector<bool> seen(hdrs.size(), false);
    for (std::size_t i = 0; i < hdrs.size(); ++i) {
        const std::string name = partialName(names, i);
        if (hdrs[i].configKey != first.configKey)
            throw SnapshotError(name + ": config '" + hdrs[i].configKey +
                                "' does not match " +
                                partialName(names, 0) + " ('" +
                                first.configKey + "')");
        if (hdrs[i].shard.count != first.shard.count)
            throw SnapshotError(name + ": shard split " +
                                hdrs[i].shard.str() +
                                " does not match " + first.shard.str());
        const std::size_t idx =
            static_cast<std::size_t>(hdrs[i].shard.index);
        if (seen[idx])
            throw SnapshotError(name + ": duplicate shard " +
                                hdrs[i].shard.str());
        seen[idx] = true;
    }
    return hdrs;
}

void
coverFault(std::vector<std::uint8_t> &covered, std::uint32_t k,
           const std::string &name)
{
    if (k >= covered.size())
        throw SnapshotError(name + ": fault index " + std::to_string(k) +
                            " out of range (circuit has " +
                            std::to_string(covered.size()) + ")");
    if (covered[k]++)
        throw SnapshotError(name + ": fault index " + std::to_string(k) +
                            " covered twice");
}

void
checkAllCovered(const std::vector<std::uint8_t> &covered)
{
    for (std::size_t k = 0; k < covered.size(); ++k)
        if (!covered[k])
            throw SnapshotError("merge: fault index " + std::to_string(k) +
                                " covered by no partial (missing shard?)");
}

engine::CampaignStats
mergedStats(std::uint64_t faults, std::uint64_t simulated,
            std::uint64_t patterns)
{
    engine::CampaignStats st;
    st.totalFaults = faults;
    st.simulatedFaults = simulated;
    st.patternsApplied = patterns;
    st.collapseRatio =
        faults ? static_cast<double>(simulated) / static_cast<double>(faults)
               : 1.0;
    return st;
}

sim::SimdTarget
parseSimdName(const std::string &s, const std::string &name)
{
    sim::SimdTarget t;
    if (!sim::parseSimdTarget(s.c_str(), &t))
        throw SnapshotError(name + ": unknown SIMD target '" + s + "'");
    return t;
}

void
checkResumedCoverage(const std::vector<std::uint32_t> &faultIndex,
                     const std::vector<int> &classOf,
                     const std::vector<std::uint8_t> &done,
                     const std::string &name)
{
    std::vector<std::uint8_t> seen(classOf.size(), 0);
    for (const std::uint32_t k : faultIndex) {
        if (k >= classOf.size() ||
            !done[static_cast<std::size_t>(classOf[k])] || seen[k]++)
            throw SnapshotError(name + ": fault index " +
                                std::to_string(k) +
                                " does not belong to the resumed units");
    }
    for (std::size_t k = 0; k < classOf.size(); ++k)
        if (done[static_cast<std::size_t>(classOf[k])] && !seen[k])
            throw SnapshotError(name + ": resumed units miss fault " +
                                std::to_string(k));
}

ShardOutcome
runSlices(SliceWork &work, const engine::ShardSpec &shard,
          const CheckpointOptions &ckpt, bool publish,
          const engine::EngineOptions &eopts,
          const engine::CancelToken *cancel)
{
    ShardOutcome out;
    out.units = work.units();
    out.shardClasses = static_cast<int>(work.classesIn(0, out.units));
    out.shardFaults = static_cast<int>(work.faults());

    // The snapshot identity costs a netlist hash: only inline runs
    // with nothing to encode skip it.
    SnapshotHeader id;
    if (publish || ckpt.sink || ckpt.resume) {
        id = work.identity();
        id.shard = shard;
        id.units = out.units;
    }

    std::uint64_t cursor = 0;
    if (ckpt.resume) {
        std::vector<std::uint8_t> payload;
        const SnapshotHeader h = engine::decodeSnapshot(
            *ckpt.resume, &payload, ckpt.resumeName);
        if (h.kind != id.kind)
            throw SnapshotError(ckpt.resumeName + ": not a " + id.kind +
                                " campaign snapshot");
        if (h.netHash != id.netHash)
            throw SnapshotError(ckpt.resumeName +
                                ": snapshot is for a different circuit");
        if (h.configKey != id.configKey)
            throw SnapshotError(
                ckpt.resumeName + ": config mismatch (snapshot '" +
                h.configKey + "', run '" + id.configKey + "')");
        if (h.shapeKey != id.shapeKey || h.units != id.units)
            throw SnapshotError(
                ckpt.resumeName +
                ": work-shape mismatch; rerun without --resume");
        if (!(h.shard == shard))
            throw SnapshotError(ckpt.resumeName + ": snapshot is shard " +
                                h.shard.str() + ", not " + shard.str());
        work.restorePayload(payload, h.cursor, ckpt.resumeName);
        cursor = h.cursor;
        out.resumedUnits = cursor;
    }

    const auto snapshot = [&](std::uint64_t cur, bool complete) {
        SnapshotHeader h = id;
        h.cursor = cur;
        h.complete = complete;
        return engine::encodeSnapshot(h, work.encodePayload(cur));
    };
    const auto checkpoint = [&](std::uint64_t cur) {
        if (ckpt.sink)
            ckpt.sink(snapshot(cur, false), false);
    };

    // every < 0 = auto cadence: ~16 snapshots across this shard with
    // a 64-class floor. Snapshots are self-contained (all records so
    // far), so a fixed fine cadence on a big universe would pay
    // O(snapshots x records) encode-and-write bytes.
    const std::uint64_t every =
        ckpt.every >= 0
            ? static_cast<std::uint64_t>(ckpt.every)
            : std::max<std::uint64_t>(
                  64, static_cast<std::uint64_t>(out.shardClasses) / 16);

    engine::CampaignEngine eng(eopts);
    eng.beginCampaign(static_cast<std::uint64_t>(out.shardClasses));
    while (cursor < out.units) {
        // Whole units covering >= `every` classes (all when 0).
        std::uint64_t end = cursor;
        std::uint64_t classes = 0;
        do {
            classes += work.classesIn(end, end + 1);
            ++end;
        } while (end < out.units && (every == 0 || classes < every));

        try {
            work.classify(eng, cursor, end);
        } catch (const engine::CampaignCancelled &) {
            // An interrupt lands a final checkpoint at the last
            // completed block instead of discarding the work.
            checkpoint(cursor);
            throw;
        }
        cursor = end;
        if (cursor == out.units)
            break;
        if (every > 0)
            checkpoint(cursor);
        if (cancel && cancel->stopRequested()) {
            if (every == 0)
                checkpoint(cursor);
            throw engine::CampaignCancelled();
        }
    }
    // An empty trailing shard still publishes a partial.
    if (publish || ckpt.sink) {
        std::vector<std::uint8_t> snap = snapshot(out.units, true);
        if (ckpt.sink)
            ckpt.sink(snap, true);
        if (publish)
            out.partial = std::move(snap);
    }
    out.stats = eng.endCampaign(work.faults(), work.simulatedClasses(),
                                work.patterns());
    return out;
}

} // namespace shard_detail

engine::SnapshotHeader
snapshotHeader(const std::vector<std::uint8_t> &bytes,
               const std::string &name)
{
    return engine::decodeSnapshot(bytes, nullptr, name);
}

namespace
{

void
pushFlag(std::vector<std::string> *args, const char *flag,
         const std::string &value)
{
    args->push_back(flag);
    args->push_back(value);
}

std::string
joinIndices(const std::vector<int> &v)
{
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(v[i]);
    }
    return out;
}

} // namespace

std::vector<std::string>
campaignWorkerArgs(const CampaignOptions &opts)
{
    std::vector<std::string> a;
    pushFlag(&a, "--max-patterns", std::to_string(opts.maxPatterns));
    pushFlag(&a, "--seed", std::to_string(opts.seed));
    pushFlag(&a, "--keep-unsafe",
             std::to_string(opts.keepUnsafeExamples));
    if (!opts.checkAlternating)
        a.push_back("--no-check-alternating");
    pushFlag(&a, "--lanes", std::to_string(opts.lanes));
    pushFlag(&a, "--simd", sim::simdTargetName(opts.simd));
    if (opts.jobs != 0)
        pushFlag(&a, "--jobs", std::to_string(opts.jobs));
    a.push_back(opts.faultBatch ? "--fault-batch" : "--no-fault-batch");
    a.push_back(opts.cpt ? "--cpt" : "--no-cpt");
    return a;
}

std::vector<std::string>
seqCampaignWorkerArgs(const SeqCampaignOptions &opts,
                      const SeqCampaignSpec &spec)
{
    std::vector<std::string> a;
    pushFlag(&a, "--symbols", std::to_string(opts.symbols));
    pushFlag(&a, "--seed", std::to_string(opts.seed));
    pushFlag(&a, "--lanes", std::to_string(opts.lanes));
    pushFlag(&a, "--simd", sim::simdTargetName(opts.simd));
    pushFlag(&a, "--window",
             std::to_string(opts.faultStart) + ":" +
                 std::to_string(opts.faultEnd));
    if (!opts.dropDetected)
        a.push_back("--no-drop");
    if (opts.jobs != 0)
        pushFlag(&a, "--jobs", std::to_string(opts.jobs));
    pushFlag(&a, "--phi-index", std::to_string(spec.phiInput));
    if (!spec.holdInputs.empty())
        pushFlag(&a, "--hold", joinIndices(spec.holdInputs));
    if (!spec.dataOutputs.empty())
        pushFlag(&a, "--data", joinIndices(spec.dataOutputs));
    if (!spec.altOutputs.empty())
        pushFlag(&a, "--alt", joinIndices(spec.altOutputs));
    if (!spec.codePairs.empty())
        pushFlag(&a, "--code-pairs", joinIndices(spec.codePairs));
    return a;
}

} // namespace scal::fault
