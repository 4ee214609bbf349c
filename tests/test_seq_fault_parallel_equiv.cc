/**
 * The seq campaign pipeline against the per-fault reference oracle:
 * bit-identity of verdicts, first-alarm/escape periods, latency
 * histograms and lane counters across jobs counts, lane widths
 * (several fault lane groups per batch up to 256 lanes, one above),
 * SIMD targets, transient windows and hold inputs; and the raw
 * (non-hardened) fallback spec.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/seq_campaign.hh"
#include "netlist/netlist.hh"
#include "seq/dual_flipflop.hh"
#include "seq/kohavi.hh"
#include "seq/registers.hh"

using namespace scal;
using namespace scal::netlist;

namespace
{

struct Case
{
    std::string name;
    Netlist net;
    fault::SeqCampaignSpec spec;
};

/**
 * A raw sequential net that is NOT an alternating machine: mixed
 * PhiRise/PhiFall latches, a held input, and a single buffered data
 * input serving as the only alternating output so the fault-free
 * precondition passes. Exercises the fallback spec (explicit alt
 * set, hold set, default data set) on the batch path.
 */
Case
rawCase()
{
    Case c;
    c.name = "raw";
    Netlist &net = c.net;
    GateId a = net.addInput("a");
    GateId b = net.addInput("b");
    net.addInput("phi");
    const GateId placeholder = net.addConst(false);
    GateId rise = net.addDff(placeholder, "rise", LatchMode::PhiRise,
                             /*init=*/false);
    GateId fall = net.addDff(rise, "fall", LatchMode::PhiFall,
                             /*init=*/true);
    GateId x = net.addXor({a, fall}, "x");
    net.replaceFanin(rise, 0, x);
    GateId o = net.addOr({x, b}, "o");
    net.addOutput(o, "o");
    net.addOutput(rise, "q");
    net.addOutput(net.addBuf(a, "alt"), "alt");
    c.spec.phiInput = 2;
    c.spec.holdInputs = {1}; // b rides through the symbol pair
    c.spec.altOutputs = {2}; // only buf(a) alternates fault-free
    return c;
}

std::vector<Case>
cases()
{
    std::vector<Case> cs;
    {
        auto sm = seq::reynoldsDetector();
        auto spec = seq::campaignSpec(sm);
        cs.push_back({"reynolds", std::move(sm.net), spec});
    }
    {
        auto sm = seq::translatorDetector();
        auto spec = seq::campaignSpec(sm);
        cs.push_back({"translator", std::move(sm.net), spec});
    }
    {
        auto sm = seq::selfDualAccumulator(4);
        auto spec = seq::campaignSpec(sm);
        cs.push_back({"accumulator4", std::move(sm.net), spec});
    }
    cs.push_back(rawCase());
    return cs;
}

/** Everything the deterministic verdict block is built from. The
 *  breakdown/periods counters are knob- and jobs-dependent by design
 *  and deliberately NOT compared. */
void
expectIdentical(const fault::SeqCampaignResult &a,
                const fault::SeqCampaignResult &b,
                bool compare_simd = true)
{
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (std::size_t k = 0; k < a.faults.size(); ++k) {
        ASSERT_EQ(a.faults[k].fault, b.faults[k].fault);
        ASSERT_EQ(a.faults[k].outcome, b.faults[k].outcome)
            << "fault " << k;
        ASSERT_EQ(a.faults[k].firstAlarmPeriod,
                  b.faults[k].firstAlarmPeriod)
            << "fault " << k;
        ASSERT_EQ(a.faults[k].firstEscapePeriod,
                  b.faults[k].firstEscapePeriod)
            << "fault " << k;
    }
    EXPECT_EQ(a.numDetected, b.numDetected);
    EXPECT_EQ(a.numUnsafe, b.numUnsafe);
    EXPECT_EQ(a.numUntestable, b.numUntestable);
    EXPECT_EQ(a.latencyHistogram, b.latencyHistogram);
    EXPECT_EQ(a.alarmLaneCount, b.alarmLaneCount);
    EXPECT_EQ(a.meanAlarmPeriod, b.meanAlarmPeriod);
    EXPECT_EQ(a.symbols, b.symbols);
    EXPECT_EQ(a.lanes, b.lanes);
    if (compare_simd)
        EXPECT_EQ(a.simd, b.simd);
}

/** The pipeline (batch) or the per-fault oracle (!batch). */
fault::SeqCampaignResult
runWith(const Case &c, const fault::SeqCampaignOptions &opts, bool batch)
{
    return batch ? fault::runSequentialCampaign(c.net, c.spec, opts)
                 : fault::referenceSequentialCampaign(c.net, c.spec, opts);
}

TEST(SeqFaultParallelEquiv, MatchesPerFaultPathAcrossJobsAndLanes)
{
    for (const auto &c : cases()) {
        for (int lanes : {64, 256}) {
            for (int jobs : {1, 2, 8}) {
                SCOPED_TRACE(c.name + " lanes=" +
                             std::to_string(lanes) +
                             " jobs=" + std::to_string(jobs));
                fault::SeqCampaignOptions opts;
                opts.symbols = 24;
                opts.lanes = lanes;
                opts.seed = 7;
                opts.jobs = jobs;
                const auto on = runWith(c, opts, true);
                const auto off = runWith(c, opts, false);
                EXPECT_TRUE(on.faultBatch);
                EXPECT_FALSE(off.faultBatch);
                EXPECT_GT(on.batches, 0);
                expectIdentical(on, off);
            }
        }
    }
}

TEST(SeqFaultParallelEquiv, PortableSimdMatches)
{
    for (const auto &c : cases()) {
        if (c.name != "translator" && c.name != "raw")
            continue;
        for (int lanes : {64, 256}) {
            SCOPED_TRACE(c.name + " lanes=" + std::to_string(lanes));
            fault::SeqCampaignOptions opts;
            opts.symbols = 20;
            opts.lanes = lanes;
            opts.seed = 11;
            opts.jobs = 2;
            opts.simd = sim::SimdTarget::Portable;
            const auto on = runWith(c, opts, true);
            const auto off = runWith(c, opts, false);
            expectIdentical(on, off);

            // Verdicts are also invariant across kernel builds.
            opts.simd = sim::SimdTarget::Auto;
            const auto native = runWith(c, opts, true);
            expectIdentical(on, native, /*compare_simd=*/false);
        }
    }
}

TEST(SeqFaultParallelEquiv, TransientWindowMatches)
{
    // A non-full window also gates off the time-frame dominance
    // rules; the pipeline must agree with the per-fault oracle on
    // faults that come and go mid-stream.
    for (const auto &c : cases()) {
        if (c.name != "reynolds" && c.name != "raw")
            continue;
        for (int jobs : {1, 8}) {
            SCOPED_TRACE(c.name + " jobs=" + std::to_string(jobs));
            fault::SeqCampaignOptions opts;
            opts.symbols = 24;
            opts.lanes = 64;
            opts.seed = 13;
            opts.jobs = jobs;
            opts.faultStart = 5;
            opts.faultEnd = 13;
            const auto on = runWith(c, opts, true);
            const auto off = runWith(c, opts, false);
            expectIdentical(on, off);
        }
    }
}

TEST(SeqFaultParallelEquiv, WideLanesBatchOneGroupPerBatch)
{
    // Above 256 lanes one fault fills the widest kernel block: the
    // pipeline still lane-batches, one fault group per batch.
    const auto cs = cases();
    const Case &c = cs[1]; // translator
    for (const int lanes : {320, 512}) {
        SCOPED_TRACE("lanes=" + std::to_string(lanes));
        fault::SeqCampaignOptions opts;
        opts.symbols = 12;
        opts.lanes = lanes;
        opts.seed = 17;
        opts.jobs = 2;
        const auto on = runWith(c, opts, true);
        const auto off = runWith(c, opts, false);
        EXPECT_TRUE(on.faultBatch);
        EXPECT_GT(on.batches, 0);
        EXPECT_EQ(on.batches, on.batchedClasses);
        expectIdentical(on, off);
    }
}

} // namespace
