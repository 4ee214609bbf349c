/**
 * @file
 * Snapshot format and checkpoint/resume soundness: byte-codec round
 * trips, rejection of every corrupted or truncated snapshot with a
 * diagnostic, atomic file round trips, and the kill/resume fuzz — a
 * campaign snapshotted at every checkpoint boundary must, when
 * resumed from any of those snapshots, reproduce the uninterrupted
 * run's verdict field-identically.
 */

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/checkpoint.hh"
#include "fault/report.hh"
#include "fault/shard.hh"
#include "ingest/harden.hh"
#include "test_helpers.hh"
#include "util/rng.hh"

namespace scal
{
namespace
{

using engine::SnapshotError;
using engine::SnapshotHeader;

SnapshotHeader
sampleHeader()
{
    SnapshotHeader hdr;
    hdr.kind = "comb";
    hdr.netHash = 0x1234567890abcdefULL;
    hdr.configKey = "comb;max_patterns=4096;seed=1";
    hdr.shapeKey = "lanes=64;simd=portable";
    hdr.shard = {1, 4};
    hdr.units = 100;
    hdr.cursor = 42;
    hdr.complete = false;
    return hdr;
}

std::vector<std::uint8_t>
samplePayload()
{
    engine::ByteWriter w;
    w.u64(0xdeadbeefULL);
    w.str("payload");
    for (int i = 0; i < 32; ++i)
        w.u8(static_cast<std::uint8_t>(i * 7));
    return w.take();
}

TEST(Checkpoint, ByteCodecRoundTrip)
{
    engine::ByteWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.str("hello snapshot");
    w.str("");
    const std::vector<std::uint8_t> bytes = w.bytes();

    engine::ByteReader r(bytes);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.str(), "hello snapshot");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.atEnd());
    // Any further read underruns with a diagnostic, not UB.
    EXPECT_THROW(r.u8(), SnapshotError);
}

TEST(Checkpoint, SnapshotRoundTrip)
{
    const SnapshotHeader hdr = sampleHeader();
    const std::vector<std::uint8_t> payload = samplePayload();
    const auto bytes = engine::encodeSnapshot(hdr, payload);

    std::vector<std::uint8_t> got_payload;
    const SnapshotHeader got =
        engine::decodeSnapshot(bytes, &got_payload, "test");
    EXPECT_EQ(got.kind, hdr.kind);
    EXPECT_EQ(got.netHash, hdr.netHash);
    EXPECT_EQ(got.configKey, hdr.configKey);
    EXPECT_EQ(got.shapeKey, hdr.shapeKey);
    EXPECT_EQ(got.shard, hdr.shard);
    EXPECT_EQ(got.units, hdr.units);
    EXPECT_EQ(got.cursor, hdr.cursor);
    EXPECT_EQ(got.complete, hdr.complete);
    EXPECT_EQ(got_payload, payload);
}

TEST(Checkpoint, EverySingleByteFlipRejected)
{
    // The trailing FNV-1a covers every preceding byte and the trailer
    // itself is compared against the recomputation, so flipping ANY
    // byte must be caught — there is no silently-resumable corruption.
    const auto bytes =
        engine::encodeSnapshot(sampleHeader(), samplePayload());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        auto bad = bytes;
        bad[i] ^= 0x01;
        EXPECT_THROW(engine::decodeSnapshot(bad, nullptr, "flip"),
                     SnapshotError)
            << "flipped byte " << i;
    }
}

TEST(Checkpoint, EveryTruncationRejected)
{
    const auto bytes =
        engine::encodeSnapshot(sampleHeader(), samplePayload());
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() +
                                                static_cast<long>(n));
        EXPECT_THROW(engine::decodeSnapshot(cut, nullptr, "cut"),
                     SnapshotError)
            << "truncated to " << n << " bytes";
    }
}

TEST(Checkpoint, DiagnosticsNameSourceAndOffset)
{
    const auto bytes =
        engine::encodeSnapshot(sampleHeader(), samplePayload());
    auto bad = bytes;
    bad[bytes.size() / 2] ^= 0xff;
    try {
        engine::decodeSnapshot(bad, nullptr, "job.ckpt");
        FAIL() << "corrupted snapshot decoded";
    } catch (const SnapshotError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("job.ckpt"), std::string::npos) << what;
        EXPECT_NE(what.find("corrupted"), std::string::npos) << what;
        EXPECT_NE(what.find("at byte"), std::string::npos) << what;
    }
}

/** @p bytes with its version byte set to @p version and the trailer
 *  re-sealed, so only the version check can reject it. */
std::vector<std::uint8_t>
withVersion(std::vector<std::uint8_t> bytes, std::uint8_t version)
{
    bytes[7] = version;
    const std::size_t body = bytes.size() - 8;
    const std::uint64_t h = engine::fnv1a64Bytes(bytes.data(), body);
    for (int i = 0; i < 8; ++i)
        bytes[body + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(h >> (8 * i));
    return bytes;
}

TEST(Checkpoint, BadMagicAndVersionRejected)
{
    const auto bytes =
        engine::encodeSnapshot(sampleHeader(), samplePayload());
    auto wrong_magic = bytes;
    wrong_magic[0] = 'X';
    EXPECT_THROW(engine::decodeSnapshot(wrong_magic, nullptr, "m"),
                 SnapshotError);
    // Version bump with a re-stamped trailer: caught by the version
    // check, not just the hash, and named. Version 2 is the previous
    // format (its seq payloads carry a byte v3 dropped), so it must
    // fail on its version, never misparse.
    for (const std::uint8_t v : {std::uint8_t{2}, std::uint8_t{99}}) {
        try {
            engine::decodeSnapshot(withVersion(bytes, v), nullptr,
                                   "old/shard0.part");
            FAIL() << "unsupported version " << int(v) << " decoded";
        } catch (const SnapshotError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("old/shard0.part"), std::string::npos)
                << what;
            EXPECT_NE(what.find("version " + std::to_string(v)),
                      std::string::npos)
                << what;
        }
    }
}

TEST(Checkpoint, HostileShardCountRejected)
{
    // A sealed header claiming a 5000-way split (above the 4096 shard
    // limit) must fail at decode with a located diagnostic, before
    // merge could size anything by the count.
    SnapshotHeader hdr = sampleHeader();
    hdr.shard = {0, 5000};
    const auto bytes = engine::encodeSnapshot(hdr, samplePayload());
    try {
        engine::decodeSnapshot(bytes, nullptr, "hostile.snp");
        FAIL() << "5000-shard header decoded";
    } catch (const SnapshotError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("hostile.snp"), std::string::npos) << what;
        EXPECT_NE(what.find("shard"), std::string::npos) << what;
        EXPECT_NE(what.find("at byte"), std::string::npos) << what;
    }
    EXPECT_THROW(fault::snapshotHeader(bytes, "hostile.snp"),
                 SnapshotError);

    hdr.shard = {4095, 4096}; // the limit itself is fine
    EXPECT_NO_THROW(engine::decodeSnapshot(
        engine::encodeSnapshot(hdr, samplePayload()), nullptr, "ok"));
}

TEST(Checkpoint, FileRoundTripIsAtomic)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        "scal_checkpoint_file_test";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "snap.snp").string();

    const auto bytes =
        engine::encodeSnapshot(sampleHeader(), samplePayload());
    engine::writeSnapshotFile(path, bytes);
    EXPECT_EQ(engine::readSnapshotFile(path), bytes);
    // The tmp staging file must not survive a successful publish.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    // Overwrite with new content: rename replaces atomically.
    auto hdr2 = sampleHeader();
    hdr2.cursor = 77;
    const auto bytes2 = engine::encodeSnapshot(hdr2, samplePayload());
    engine::writeSnapshotFile(path, bytes2);
    EXPECT_EQ(engine::readSnapshotFile(path), bytes2);

    EXPECT_THROW(engine::readSnapshotFile((dir / "missing.snp").string()),
                 SnapshotError);
    std::filesystem::remove_all(dir);
}

/** Capture every snapshot a checkpointing shard run emits. */
struct SnapshotLog
{
    std::vector<std::vector<std::uint8_t>> boundaries; ///< final=false
    std::vector<std::uint8_t> partial;                 ///< final=true

    fault::CheckpointOptions
    options(int every)
    {
        fault::CheckpointOptions ckpt;
        ckpt.every = every;
        ckpt.sink = [this](const std::vector<std::uint8_t> &bytes,
                           bool final) {
            if (final)
                partial = bytes;
            else
                boundaries.push_back(bytes);
        };
        return ckpt;
    }
};

TEST(Checkpoint, CombKillResumeFuzz)
{
    util::Rng rng(0x5eed01u);
    const netlist::Netlist net =
        ingest::hardenNetlist(testing::randomNetlist(5, 16, rng)).net;

    fault::CampaignOptions opts;
    opts.maxPatterns = 512;
    opts.jobs = 2;
    opts.checkAlternating = false;

    // Uninterrupted run, snapshotting at every checkpoint boundary.
    SnapshotLog log;
    const fault::ShardOutcome base = fault::runAlternatingCampaignShard(
        net, opts, {0, 1}, log.options(/*every=*/1));
    ASSERT_FALSE(log.partial.empty());
    ASSERT_GE(log.boundaries.size(), 2u)
        << "cadence 1 should produce several boundary snapshots";
    const std::string want = fault::campaignVerdictJson(
        net, fault::mergeCampaignPartials(net, {log.partial}));

    // Simulated kill at every boundary: resuming from each snapshot
    // must land on the identical verdict.
    for (std::size_t k = 0; k < log.boundaries.size(); ++k) {
        const SnapshotHeader hdr =
            fault::snapshotHeader(log.boundaries[k]);
        EXPECT_FALSE(hdr.complete);
        EXPECT_LT(hdr.cursor, hdr.units);

        fault::CheckpointOptions resume;
        resume.resume = &log.boundaries[k];
        resume.resumeName = "boundary " + std::to_string(k);
        const fault::ShardOutcome out =
            fault::runAlternatingCampaignShard(net, opts, {0, 1},
                                               resume);
        EXPECT_EQ(out.resumedUnits, hdr.cursor)
            << "boundary " << k;
        EXPECT_EQ(out.units, base.units);
        EXPECT_EQ(fault::campaignVerdictJson(
                      net,
                      fault::mergeCampaignPartials(net, {out.partial})),
                  want)
            << "resume from boundary " << k;
    }
}

TEST(Checkpoint, SeqKillResumeFuzz)
{
    // A small raw sequential machine, hardened into the alternating
    // realization the campaign targets in production.
    netlist::Netlist raw;
    const netlist::GateId a = raw.addInput("a");
    const netlist::GateId b = raw.addInput("b");
    const netlist::GateId c0 = raw.addConst(false);
    const netlist::GateId q = raw.addDff(c0, "q");
    const netlist::GateId x = raw.addXor({a, q}, "x");
    raw.replaceFanin(q, 0, x);
    raw.addOutput(raw.addOr({x, b}, "o"), "o");
    raw.addOutput(q, "s");
    const ingest::HardenedCircuit hard = ingest::hardenNetlist(raw);

    fault::SeqCampaignOptions opts;
    opts.symbols = 24;
    opts.jobs = 2;

    SnapshotLog log;
    fault::runSequentialCampaignShard(hard.net, hard.campaignSpec(),
                                      opts, {0, 1},
                                      log.options(/*every=*/1));
    ASSERT_FALSE(log.partial.empty());
    ASSERT_GE(log.boundaries.size(), 2u);
    const std::string want = fault::seqCampaignVerdictJson(
        hard.net,
        fault::mergeSeqCampaignPartials(hard.net, {log.partial}));

    for (std::size_t k = 0; k < log.boundaries.size(); ++k) {
        fault::CheckpointOptions resume;
        resume.resume = &log.boundaries[k];
        resume.resumeName = "boundary " + std::to_string(k);
        const fault::ShardOutcome out = fault::runSequentialCampaignShard(
            hard.net, hard.campaignSpec(), opts, {0, 1}, resume);
        EXPECT_EQ(fault::seqCampaignVerdictJson(
                      hard.net, fault::mergeSeqCampaignPartials(
                                    hard.net, {out.partial})),
                  want)
            << "resume from boundary " << k;
    }
}

TEST(Checkpoint, AutoCadenceEmitsBoundedSnapshots)
{
    // every < 0 = automatic cadence max(64, shardClasses / 16): on a
    // small universe (shardClasses << 64 * 16) that resolves to 64,
    // so boundary snapshots stay rare but resume still works, and
    // the verdict is identical to the no-checkpoint run.
    util::Rng rng(0x5eed03u);
    const netlist::Netlist net =
        ingest::hardenNetlist(testing::randomNetlist(5, 16, rng)).net;

    fault::CampaignOptions opts;
    opts.maxPatterns = 512;
    opts.checkAlternating = false;

    SnapshotLog autoLog;
    const fault::ShardOutcome autoOut =
        fault::runAlternatingCampaignShard(net, opts, {0, 1},
                                           autoLog.options(-1));
    ASSERT_FALSE(autoLog.partial.empty());
    // Cadence 64 over a few hundred classes: a handful of
    // boundaries at most, never one per class.
    EXPECT_LE(
        autoLog.boundaries.size(),
        static_cast<std::size_t>(autoOut.shardClasses) / 64 + 1);

    const fault::ShardOutcome plain =
        fault::runAlternatingCampaignShard(net, opts, {0, 1});
    EXPECT_EQ(fault::campaignVerdictJson(
                  net, fault::mergeCampaignPartials(
                           net, {autoLog.partial})),
              fault::campaignVerdictJson(
                  net, fault::mergeCampaignPartials(
                           net, {plain.partial})));

    // Every auto-cadence boundary resumes to the same verdict.
    for (std::size_t k = 0; k < autoLog.boundaries.size(); ++k) {
        fault::CheckpointOptions resume;
        resume.resume = &autoLog.boundaries[k];
        const fault::ShardOutcome out =
            fault::runAlternatingCampaignShard(net, opts, {0, 1},
                                               resume);
        EXPECT_EQ(fault::campaignVerdictJson(
                      net, fault::mergeCampaignPartials(
                               net, {out.partial})),
                  fault::campaignVerdictJson(
                      net, fault::mergeCampaignPartials(
                               net, {plain.partial})))
            << "resume from auto boundary " << k;
    }
}

TEST(Checkpoint, ResumeRejectsForeignOrCorruptSnapshot)
{
    util::Rng rng(0x5eed02u);
    const netlist::Netlist net =
        ingest::hardenNetlist(testing::randomNetlist(5, 14, rng)).net;

    fault::CampaignOptions opts;
    opts.maxPatterns = 256;
    opts.jobs = 1;
    opts.checkAlternating = false;

    SnapshotLog log;
    fault::runAlternatingCampaignShard(net, opts, {0, 1},
                                       log.options(/*every=*/1));
    ASSERT_GE(log.boundaries.size(), 1u);
    const std::vector<std::uint8_t> ckpt = log.boundaries.front();

    // A config change invalidates the checkpoint: the header's config
    // key no longer matches, so resume must refuse instead of
    // continuing a different campaign.
    fault::CampaignOptions other = opts;
    other.seed = 99;
    fault::CheckpointOptions resume;
    resume.resume = &ckpt;
    resume.resumeName = "stale.ckpt";
    EXPECT_THROW(fault::runAlternatingCampaignShard(net, other, {0, 1},
                                                    resume),
                 SnapshotError);

    // A different shard of the same split is just as foreign.
    fault::CheckpointOptions wrong_shard;
    wrong_shard.resume = &ckpt;
    EXPECT_THROW(fault::runAlternatingCampaignShard(net, opts, {1, 2},
                                                    wrong_shard),
                 SnapshotError);

    // Bit rot in the snapshot itself is caught by the trailer hash.
    auto corrupt = ckpt;
    corrupt[corrupt.size() / 3] ^= 0x40;
    fault::CheckpointOptions bad;
    bad.resume = &corrupt;
    bad.resumeName = "rotten.ckpt";
    try {
        fault::runAlternatingCampaignShard(net, opts, {0, 1}, bad);
        FAIL() << "corrupted checkpoint resumed";
    } catch (const SnapshotError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("rotten.ckpt"), std::string::npos) << what;
        EXPECT_NE(what.find("corrupted"), std::string::npos) << what;
    }
}

} // namespace
} // namespace scal
