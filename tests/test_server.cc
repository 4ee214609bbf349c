/**
 * @file
 * Campaign daemon tests: scheduler semantics (fair share, priorities,
 * backpressure, cancellation, progress/terminal events), the
 * content-addressed verdict cache (byte-identity of hits against both
 * a cold daemon run and the inline library path), the JSONL value
 * type, and the socket protocol end to end, including malformed
 * requests answered with line-numbered diagnostics.
 *
 * Runs under TSan in CI: every cross-thread interaction here (event
 * callbacks, cache counters, cancel tokens) is exercised
 * concurrently on purpose.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "fault/campaign.hh"
#include "fault/report.hh"
#include "fault/seq_campaign.hh"
#include "netlist/circuits.hh"
#include "netlist/io.hh"
#include "seq/dual_flipflop.hh"
#include "seq/kohavi.hh"
#include "server/cache.hh"
#include "server/client.hh"
#include "server/jsonl.hh"
#include "server/scheduler.hh"
#include "server/server.hh"

namespace scal
{
namespace
{

using namespace server;

// ---------------------------------------------------------------- jsonl

TEST(Jsonl, RoundTripAndOrder)
{
    const jsonl::Value v = jsonl::parse(
        R"({"b":1,"a":[true,null,"x\ny",-3,1.5],"c":{"k":18446744073709551615}})");
    // Objects keep insertion order, 64-bit integers survive exactly.
    EXPECT_EQ(v.dump(),
              "{\"b\":1,\"a\":[true,null,\"x\\ny\",-3,1.5],"
              "\"c\":{\"k\":18446744073709551615}}");
    EXPECT_EQ(v.find("c")->find("k")->asUint64(),
              18446744073709551615ull);
    EXPECT_EQ(v.find("a")->asArray()[2].asString(), "x\ny");
}

TEST(Jsonl, ParseErrorsCarryOffset)
{
    try {
        jsonl::parse("{\"a\": nope}");
        FAIL();
    } catch (const jsonl::ParseError &e) {
        EXPECT_GE(e.offset, 6u); // points at (or into) the bad token
        EXPECT_NE(std::string(e.what()).find("byte"),
                  std::string::npos);
    }
    EXPECT_THROW(jsonl::parse("{\"a\":1} junk"), jsonl::ParseError);
    EXPECT_THROW(jsonl::parse("[1,2"), jsonl::ParseError);
}

TEST(Jsonl, NestingDepthIsBounded)
{
    // The limit itself parses; one level more is a ParseError located
    // at the bracket that crosses it, however deep the line goes on.
    const int d = jsonl::kMaxNestingDepth;
    const std::string at_limit =
        std::string(static_cast<std::size_t>(d), '[') +
        std::string(static_cast<std::size_t>(d), ']');
    EXPECT_NO_THROW(jsonl::parse(at_limit));
    for (const std::string &bad :
         {"[" + at_limit + "]", std::string(500000, '[')}) {
        try {
            jsonl::parse(bad);
            FAIL() << "nesting of " << bad.size() << " bytes parsed";
        } catch (const jsonl::ParseError &e) {
            EXPECT_EQ(e.offset, static_cast<std::size_t>(d));
            EXPECT_NE(std::string(e.what()).find("nesting"),
                      std::string::npos)
                << e.what();
        }
    }
    std::string objects;
    for (int i = 0; i < 2 * d; ++i)
        objects += "{\"k\":";
    try {
        jsonl::parse(objects);
        FAIL() << "nested objects parsed";
    } catch (const jsonl::ParseError &e) {
        EXPECT_EQ(e.offset, 5 * static_cast<std::size_t>(d)) << e.what();
    }
}

TEST(Jsonl, LineBufferFraming)
{
    jsonl::LineBuffer buf;
    std::string line;
    buf.feed("{\"a\":1}\r\n{\"b\"", 13);
    ASSERT_TRUE(buf.pop(&line));
    EXPECT_EQ(line, "{\"a\":1}"); // \r stripped
    EXPECT_FALSE(buf.pop(&line)); // second line incomplete
    buf.feed(":2}\n", 4);
    ASSERT_TRUE(buf.pop(&line));
    EXPECT_EQ(line, "{\"b\":2}");
}

TEST(Jsonl, LineBufferCapsLineLength)
{
    jsonl::LineBuffer buf(8);
    std::string line;
    buf.feed("12345678\n", 9); // exactly at the cap
    ASSERT_TRUE(buf.pop(&line));
    EXPECT_EQ(line, "12345678");
    buf.feed("12345", 5);
    EXPECT_FALSE(buf.pop(&line));
    EXPECT_FALSE(buf.overflowed()); // still within the cap
    buf.feed("6789", 4);
    EXPECT_FALSE(buf.pop(&line));
    EXPECT_TRUE(buf.overflowed());
    buf.feed("\n{}\n", 4); // latched: nothing is framed any more
    EXPECT_FALSE(buf.pop(&line));

    // An oversized line that arrives whole in one read is caught too.
    jsonl::LineBuffer whole(4);
    whole.feed("ok\ntoolong\nok\n", 14);
    ASSERT_TRUE(whole.pop(&line));
    EXPECT_EQ(line, "ok");
    EXPECT_FALSE(whole.pop(&line));
    EXPECT_TRUE(whole.overflowed());
}

TEST(Jsonl, LineBufferFramesABurstInLinearTime)
{
    // 200,000 short lines fed at once: popping them used to erase
    // from the front of the buffer per line, ~60 GB of memmove.
    const std::size_t n = 200000;
    std::string burst;
    for (std::size_t i = 0; i < n; ++i)
        burst += std::to_string(i % 10) + "\n";
    jsonl::LineBuffer buf;
    const auto t0 = std::chrono::steady_clock::now();
    buf.feed(burst.data(), burst.size());
    std::string line;
    std::size_t popped = 0;
    while (buf.pop(&line)) {
        ASSERT_EQ(line, std::to_string(popped % 10));
        ++popped;
    }
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    EXPECT_EQ(popped, n);
    EXPECT_LT(secs, 2.0);

    // Partial feeds: bytes already searched are not searched again,
    // and consumed ones are dropped as the stream goes on.
    jsonl::LineBuffer drip;
    popped = 0;
    for (const char c : burst) {
        drip.feed(&c, 1);
        while (drip.pop(&line))
            ++popped;
    }
    EXPECT_EQ(popped, n);
}

// ---------------------------------------------------------------- cache

TEST(VerdictCache, LruEvictionAndStats)
{
    CacheOptions opts;
    opts.maxEntries = 2;
    VerdictCache cache(opts);
    CachedVerdict v;
    v.kind = "comb";
    v.verdict = "{}\n";
    cache.insert("a", v);
    cache.insert("b", v);
    CachedVerdict out;
    ASSERT_TRUE(cache.lookup("a", &out)); // now "b" is least recent
    cache.insert("c", v);                 // evicts "b"
    EXPECT_FALSE(cache.lookup("b", &out));
    EXPECT_TRUE(cache.lookup("a", &out));
    EXPECT_TRUE(cache.lookup("c", &out));
    const CacheStats st = cache.stats();
    EXPECT_EQ(st.entries, 2u);
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.hits, 3u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.insertions, 3u);
    EXPECT_GT(st.residentBytes, 0u);
}

TEST(VerdictCache, DiskSpillSurvivesEviction)
{
    char tmpl[] = "/tmp/scal_cache_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    CacheOptions opts;
    opts.maxEntries = 1;
    opts.spillDir = tmpl;
    VerdictCache cache(opts);
    CachedVerdict v;
    v.kind = "seq";
    v.verdict = "{\n  \"x\": 1\n}\n";
    v.tail = "  \"stats\": {}";
    cache.insert("k1", v);
    cache.insert("k2", v); // evicts k1 from memory, not from disk
    CachedVerdict out;
    ASSERT_TRUE(cache.lookup("k1", &out));
    EXPECT_EQ(out.verdict, v.verdict);
    EXPECT_EQ(out.tail, v.tail);
    EXPECT_EQ(out.kind, "seq");
    EXPECT_EQ(cache.stats().diskHits, 1u);
}

// ------------------------------------------------------------ fixtures

netlist::Netlist
roundTripped(const netlist::Netlist &net)
{
    return netlist::readNetlistFromString(
        netlist::writeNetlistToString(net));
}

JobConfig
combJob(const netlist::Netlist &net, const std::string &client,
        int priority, const fault::CampaignOptions &opts)
{
    JobConfig cfg;
    cfg.client = client;
    cfg.priority = priority;
    cfg.kind = "comb";
    cfg.net = net;
    cfg.netHash = netlist::contentHash(net);
    cfg.copts = opts;
    cfg.configKey = fault::canonicalCampaignConfig(opts);
    return cfg;
}

JobConfig
seqJob(const netlist::Netlist &net, const fault::SeqCampaignSpec &spec,
       const std::string &client, const fault::SeqCampaignOptions &opts)
{
    JobConfig cfg;
    cfg.client = client;
    cfg.kind = "seq";
    cfg.net = net;
    cfg.netHash = netlist::contentHash(net);
    cfg.sopts = opts;
    cfg.spec = spec;
    cfg.configKey = fault::canonicalSeqCampaignConfig(opts, spec);
    return cfg;
}

/** A seq job slow enough to still be running while a test queues more
 *  work behind it (no-drop keeps every fault simulating). */
JobConfig
blockerJob(const std::string &client, std::uint64_t seed,
           long symbols = 20000)
{
    const auto sm = seq::reynoldsDetector();
    fault::SeqCampaignOptions opts;
    opts.symbols = symbols;
    opts.seed = seed;
    opts.dropDetected = false;
    return seqJob(sm.net, seq::campaignSpec(sm), client, opts);
}

/** Record terminal events (job completion order) across jobs. */
struct TerminalLog
{
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::uint64_t> order;

    Scheduler::EventFn
    fn()
    {
        return [this](const jsonl::Value &ev) {
            if (ev.find("event")->asString() != "terminal")
                return;
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(ev.find("job")->asUint64());
            cv.notify_all();
        };
    }

    void
    waitCount(std::size_t n)
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return order.size() >= n; });
    }
};

void
waitRunning(Scheduler &sched, std::uint64_t id)
{
    for (;;) {
        JobInfo info;
        ASSERT_TRUE(sched.info(id, &info));
        if (info.state != JobState::Queued)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

Scheduler::Options
schedOpts(int maxInflight, std::size_t maxQueued = 64)
{
    Scheduler::Options o;
    o.maxInflight = maxInflight;
    o.maxQueued = maxQueued;
    o.jobsPerCampaign = 1;
    return o;
}

// ---------------------------------------------------------- scheduler

TEST(Scheduler, CacheHitIsByteIdenticalToColdAndInlineRuns)
{
    const netlist::Netlist net =
        roundTripped(netlist::circuits::section36NetworkRepaired());
    fault::CampaignOptions opts;
    opts.seed = 7;

    Scheduler sched(schedOpts(2));
    const SubmitOutcome cold =
        sched.submit(combJob(net, "a", 0, opts));
    ASSERT_TRUE(cold.accepted);
    EXPECT_FALSE(cold.cacheHit);
    JobInfo coldInfo;
    ASSERT_TRUE(sched.wait(cold.id, &coldInfo));
    ASSERT_EQ(coldInfo.state, JobState::Done);

    // Second submit — different client and priority, same content —
    // must hit the cache and return the exact same bytes.
    const SubmitOutcome warm =
        sched.submit(combJob(net, "b", 3, opts));
    ASSERT_TRUE(warm.accepted);
    EXPECT_TRUE(warm.cacheHit);
    JobInfo warmInfo;
    ASSERT_TRUE(sched.wait(warm.id, &warmInfo));
    ASSERT_EQ(warmInfo.state, JobState::Done);
    EXPECT_EQ(warmInfo.verdict, coldInfo.verdict);
    EXPECT_EQ(warmInfo.tail, coldInfo.tail);

    // And both match what the inline library path computes.
    fault::CampaignOptions inlineOpts = opts;
    inlineOpts.jobs = 1;
    const auto res = fault::runAlternatingCampaign(net, inlineOpts);
    EXPECT_EQ(coldInfo.verdict, fault::campaignVerdictJson(net, res));
    EXPECT_NE(coldInfo.verdict.find("\"self_checking\": true"),
              std::string::npos);

    const CacheStats cs = sched.cacheStats();
    EXPECT_EQ(cs.hits, 1u);
    EXPECT_EQ(cs.misses, 1u);
    EXPECT_EQ(cs.insertions, 1u);
    const SchedulerStats ss = sched.stats();
    EXPECT_EQ(ss.submitted, 2u);
    EXPECT_EQ(ss.completed, 2u);
}

TEST(Scheduler, SeqCacheHitIsByteIdenticalAcrossJobsCounts)
{
    const auto sm = seq::reynoldsDetector();
    const netlist::Netlist net = roundTripped(sm.net);
    const fault::SeqCampaignSpec spec = seq::campaignSpec(sm);
    fault::SeqCampaignOptions opts;
    opts.symbols = 64;
    opts.seed = 11;

    // Two daemons with different engine parallelism: the verdict is
    // part of the determinism contract, so the second daemon's cold
    // run produces the bytes the first one cached.
    std::string verdict1, verdict4;
    {
        Scheduler sched(schedOpts(1));
        JobInfo info;
        const auto out = sched.submit(seqJob(net, spec, "a", opts));
        ASSERT_TRUE(out.accepted);
        ASSERT_TRUE(sched.wait(out.id, &info));
        ASSERT_EQ(info.state, JobState::Done) << info.error;
        verdict1 = info.verdict;
    }
    {
        Scheduler::Options o = schedOpts(1);
        o.jobsPerCampaign = 4;
        Scheduler sched(o);
        JobInfo info;
        const auto out = sched.submit(seqJob(net, spec, "a", opts));
        ASSERT_TRUE(out.accepted);
        ASSERT_TRUE(sched.wait(out.id, &info));
        ASSERT_EQ(info.state, JobState::Done) << info.error;
        verdict4 = info.verdict;
    }
    EXPECT_EQ(verdict1, verdict4);

    // Inline library path agrees byte for byte.
    fault::SeqCampaignOptions inlineOpts = opts;
    inlineOpts.jobs = 1;
    const auto res =
        fault::runSequentialCampaign(net, spec, inlineOpts);
    EXPECT_EQ(verdict1, fault::seqCampaignVerdictJson(net, res));
}

TEST(Scheduler, SeqBatchKnobsStayOutOfCacheKeyAndVerdict)
{
    const auto sm = seq::translatorDetector();
    const netlist::Netlist net = roundTripped(sm.net);
    const fault::SeqCampaignSpec spec = seq::campaignSpec(sm);
    fault::SeqCampaignOptions opts;
    opts.symbols = 48;
    opts.seed = 7;

    // Lane batching and collapsing are chosen by the pipeline (the
    // replay route by lane width, which the key already carries) and
    // the jobs count only splits the work, so the canonical config
    // (the cache key) mentions none of them: a client changing jobs
    // keeps hitting the same entry.
    const std::string key =
        fault::canonicalSeqCampaignConfig(opts, spec);
    fault::SeqCampaignOptions toggled = opts;
    opts.jobs = 1;
    toggled.jobs = 4;
    EXPECT_EQ(key, fault::canonicalSeqCampaignConfig(toggled, spec));
    EXPECT_EQ(key.find("batch"), std::string::npos);
    EXPECT_EQ(key.find("dominance"), std::string::npos);
    EXPECT_EQ(key.find("jobs"), std::string::npos);

    Scheduler sched(schedOpts(1));
    const SubmitOutcome cold =
        sched.submit(seqJob(net, spec, "a", opts));
    ASSERT_TRUE(cold.accepted);
    EXPECT_FALSE(cold.cacheHit);
    JobInfo coldInfo;
    ASSERT_TRUE(sched.wait(cold.id, &coldInfo));
    ASSERT_EQ(coldInfo.state, JobState::Done) << coldInfo.error;

    // Warm submit at another jobs count: same key, served from
    // cache, byte-identical verdict.
    const SubmitOutcome warm =
        sched.submit(seqJob(net, spec, "a", toggled));
    ASSERT_TRUE(warm.accepted);
    EXPECT_TRUE(warm.cacheHit);
    JobInfo warmInfo;
    ASSERT_TRUE(sched.wait(warm.id, &warmInfo));
    ASSERT_EQ(warmInfo.state, JobState::Done) << warmInfo.error;
    EXPECT_TRUE(warmInfo.cacheHit);
    EXPECT_EQ(warmInfo.verdict, coldInfo.verdict);
}

TEST(Scheduler, FairShareLetsLightClientOvertakeFloodingClient)
{
    Scheduler sched(schedOpts(1));
    TerminalLog log;

    // Keep the single worker busy so the queue is stable while we
    // submit; the blocker is charged to the flooding client.
    const auto blocker = sched.submit(blockerJob("flood", 1));
    ASSERT_TRUE(blocker.accepted);
    waitRunning(sched, blocker.id);

    fault::CampaignOptions fast;
    const netlist::Netlist net =
        roundTripped(netlist::circuits::section36NetworkRepaired());
    std::vector<std::uint64_t> floodIds;
    for (int i = 0; i < 3; ++i) {
        fault::CampaignOptions opts = fast;
        opts.seed = 100 + static_cast<std::uint64_t>(i); // no cache hits
        const auto out = sched.submit(combJob(net, "flood", 0, opts));
        ASSERT_TRUE(out.accepted);
        floodIds.push_back(out.id);
        ASSERT_TRUE(sched.subscribe(out.id, log.fn()));
    }
    fault::CampaignOptions lightOpts = fast;
    lightOpts.seed = 999;
    const auto light = sched.submit(combJob(net, "light", 0, lightOpts));
    ASSERT_TRUE(light.accepted);
    ASSERT_TRUE(sched.subscribe(light.id, log.fn()));

    // Unblock the worker and watch the completion order: the light
    // client's lone job runs before any of the flooding client's
    // queued jobs, despite being submitted last.
    ASSERT_TRUE(sched.cancel(blocker.id));
    log.waitCount(4);
    EXPECT_EQ(log.order.front(), light.id);
}

TEST(Scheduler, PriorityThenFifoWithinOneClient)
{
    Scheduler sched(schedOpts(1));
    TerminalLog log;
    const auto blocker = sched.submit(blockerJob("c", 2));
    ASSERT_TRUE(blocker.accepted);
    waitRunning(sched, blocker.id);

    const netlist::Netlist net =
        roundTripped(netlist::circuits::section36NetworkRepaired());
    std::vector<std::uint64_t> ids;
    const int priorities[] = {0, 5, 0};
    for (int i = 0; i < 3; ++i) {
        fault::CampaignOptions opts;
        opts.seed = 200 + static_cast<std::uint64_t>(i);
        const auto out =
            sched.submit(combJob(net, "c", priorities[i], opts));
        ASSERT_TRUE(out.accepted);
        ids.push_back(out.id);
        ASSERT_TRUE(sched.subscribe(out.id, log.fn()));
    }
    ASSERT_TRUE(sched.cancel(blocker.id));
    log.waitCount(3);
    // Highest priority first, then FIFO among equals.
    EXPECT_EQ(log.order[0], ids[1]);
    EXPECT_EQ(log.order[1], ids[0]);
    EXPECT_EQ(log.order[2], ids[2]);
}

TEST(Scheduler, BackpressureRejectsBeyondMaxQueued)
{
    Scheduler sched(schedOpts(1, 1));
    const auto blocker = sched.submit(blockerJob("c", 3));
    ASSERT_TRUE(blocker.accepted);
    waitRunning(sched, blocker.id);

    const auto queued = sched.submit(blockerJob("c", 4));
    ASSERT_TRUE(queued.accepted);
    const auto rejected = sched.submit(blockerJob("c", 5));
    EXPECT_FALSE(rejected.accepted);
    EXPECT_EQ(rejected.reason, "backpressure");
    EXPECT_EQ(sched.stats().rejected, 1u);

    // A cache hit bypasses the queue even under backpressure.
    JobInfo info;
    sched.cancel(blocker.id);
    sched.cancel(queued.id);
    ASSERT_TRUE(sched.wait(blocker.id, &info));
}

TEST(Scheduler, CancelMidCampaignAndCancelQueued)
{
    Scheduler sched(schedOpts(1));
    const auto running = sched.submit(blockerJob("c", 6, 200000));
    ASSERT_TRUE(running.accepted);
    const auto queued = sched.submit(blockerJob("c", 7, 200000));
    ASSERT_TRUE(queued.accepted);
    waitRunning(sched, running.id);

    // Cancelling the queued job is immediate; cancelling the running
    // one takes effect at the next per-fault poll.
    ASSERT_TRUE(sched.cancel(queued.id));
    ASSERT_TRUE(sched.cancel(running.id));
    JobInfo ri, qi;
    ASSERT_TRUE(sched.wait(running.id, &ri));
    ASSERT_TRUE(sched.wait(queued.id, &qi));
    EXPECT_EQ(ri.state, JobState::Cancelled);
    EXPECT_EQ(qi.state, JobState::Cancelled);
    EXPECT_FALSE(sched.cancel(12345)); // unknown id
    EXPECT_EQ(sched.stats().cancelled, 2u);
}

TEST(Scheduler, TerminalJobsReleaseTheirCircuit)
{
    // A daemon serves jobs for as long as it runs: a finished record
    // must not pin its parsed netlist, or memory grows with every job.
    Scheduler sched(schedOpts(1));
    const std::size_t blockerGates = static_cast<std::size_t>(
        seq::reynoldsDetector().net.numGates());
    const auto running = sched.submit(blockerJob("c", 8, 200000));
    const auto queued = sched.submit(blockerJob("c", 9, 200000));
    ASSERT_TRUE(running.accepted && queued.accepted);
    waitRunning(sched, running.id);
    EXPECT_EQ(sched.stats().retainedGates, 2 * blockerGates);
    ASSERT_TRUE(sched.cancel(queued.id));
    EXPECT_EQ(sched.stats().retainedGates, blockerGates);
    ASSERT_TRUE(sched.cancel(running.id));
    JobInfo info;
    ASSERT_TRUE(sched.wait(running.id, &info));
    EXPECT_EQ(sched.stats().retainedGates, 0u);

    // Done and cache-hit records drop the circuit but keep serving
    // their verdict.
    const netlist::Netlist net =
        roundTripped(netlist::circuits::section36NetworkRepaired());
    fault::CampaignOptions opts;
    opts.seed = 3;
    const auto cold = sched.submit(combJob(net, "a", 0, opts));
    JobInfo coldInfo;
    ASSERT_TRUE(sched.wait(cold.id, &coldInfo));
    ASSERT_EQ(coldInfo.state, JobState::Done);
    const auto warm = sched.submit(combJob(net, "b", 0, opts));
    ASSERT_TRUE(warm.cacheHit);
    EXPECT_EQ(sched.stats().retainedGates, 0u);
    JobInfo again;
    ASSERT_TRUE(sched.info(cold.id, &again));
    EXPECT_EQ(again.verdict, coldInfo.verdict);
    ASSERT_TRUE(sched.info(warm.id, &again));
    EXPECT_EQ(again.verdict, coldInfo.verdict);
    EXPECT_EQ(sched.list().size(), 4u);
}

TEST(Scheduler, SubscribeStreamsProgressThenExactlyOneTerminal)
{
    Scheduler::Options o = schedOpts(1);
    o.progressInterval = std::chrono::milliseconds(5);
    Scheduler sched(o);

    const auto out = sched.submit(blockerJob("c", 8, 500000));
    ASSERT_TRUE(out.accepted);

    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::string> kinds;
    ASSERT_TRUE(sched.subscribe(out.id, [&](const jsonl::Value &ev) {
        std::lock_guard<std::mutex> lock(mu);
        kinds.push_back(ev.find("event")->asString());
        cv.notify_all();
    }));
    {
        // Wait for at least one progress snapshot before cancelling.
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !kinds.empty(); });
    }
    ASSERT_TRUE(sched.cancel(out.id));
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock,
                [&] { return !kinds.empty() && kinds.back() == "terminal"; });
    }
    JobInfo info;
    ASSERT_TRUE(sched.wait(out.id, &info));
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_GE(kinds.size(), 2u);
    // Exactly one terminal, and it is last.
    EXPECT_EQ(std::count(kinds.begin(), kinds.end(), "terminal"), 1);
    for (std::size_t i = 0; i + 1 < kinds.size(); ++i)
        EXPECT_EQ(kinds[i], "progress");

    // Subscribing after the fact synthesizes the terminal event.
    std::vector<std::string> late;
    ASSERT_TRUE(sched.subscribe(out.id, [&](const jsonl::Value &ev) {
        late.push_back(ev.find("event")->asString());
    }));
    ASSERT_EQ(late.size(), 1u);
    EXPECT_EQ(late[0], "terminal");
}

// ----------------------------------------------------------- protocol

class ServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        static int counter = 0;
        path_ = "/tmp/scal_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter++) + ".sock";
        Server::Options o;
        o.socketPath = path_;
        o.scheduler.maxInflight = 2;
        o.scheduler.jobsPerCampaign = 1;
        server_ = std::make_unique<Server>(std::move(o));
        server_->start();
    }

    void
    TearDown() override
    {
        server_->stop();
    }

    static jsonl::Value
    combSubmit(const netlist::Netlist &net, std::uint64_t seed)
    {
        jsonl::Object cfg;
        cfg.emplace_back("seed", jsonl::Value(seed));
        jsonl::Object req;
        req.emplace_back("op", jsonl::Value("submit"));
        req.emplace_back("kind", jsonl::Value("comb"));
        req.emplace_back("client", jsonl::Value("test"));
        req.emplace_back(
            "circuit", jsonl::Value(netlist::writeNetlistToString(net)));
        req.emplace_back("format", jsonl::Value("scal"));
        req.emplace_back("config", jsonl::Value(std::move(cfg)));
        return jsonl::Value(std::move(req));
    }

    std::string path_;
    std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, SubmitResultAndCacheHitOverTheWire)
{
    const netlist::Netlist net =
        roundTripped(netlist::circuits::section36NetworkRepaired());
    Client client(path_);
    const jsonl::Value cold = client.submitAndWait(combSubmit(net, 3));
    ASSERT_TRUE(cold.find("ok")->asBool());
    EXPECT_EQ(cold.find("state")->asString(), "done");
    EXPECT_FALSE(cold.find("cache_hit")->asBool());

    // Same submission from a fresh connection: served from cache,
    // byte-identical verdict.
    Client again(path_);
    const jsonl::Value warm = again.submitAndWait(combSubmit(net, 3));
    EXPECT_TRUE(warm.find("cache_hit")->asBool());
    EXPECT_EQ(warm.find("verdict")->asString(),
              cold.find("verdict")->asString());

    // Inline library agreement (jobs=1 — verdicts are jobs-invariant).
    fault::CampaignOptions opts;
    opts.seed = 3;
    opts.jobs = 1;
    const auto res = fault::runAlternatingCampaign(net, opts);
    EXPECT_EQ(cold.find("verdict")->asString(),
              fault::campaignVerdictJson(net, res));

    const jsonl::Value stats = client.request(
        jsonl::Value(jsonl::Object{{"op", jsonl::Value("stats")}}));
    EXPECT_EQ(stats.find("cache")->find("hits")->asUint64(), 1u);
    const jsonl::Value list = client.request(
        jsonl::Value(jsonl::Object{{"op", jsonl::Value("list")}}));
    EXPECT_EQ(list.find("jobs")->asArray().size(), 2u);
}

TEST_F(ServerTest, SeqSubmitMatchesInlineVerdict)
{
    const auto sm = seq::reynoldsDetector();
    const netlist::Netlist net = roundTripped(sm.net);
    fault::SeqCampaignSpec spec = seq::campaignSpec(sm);
    const std::string phiName =
        net.gate(net.inputs()[static_cast<std::size_t>(sm.phiInput)])
            .name;

    const auto listValue = [](const std::vector<int> &v) {
        jsonl::Array arr;
        for (int i : v)
            arr.emplace_back(i);
        return jsonl::Value(std::move(arr));
    };
    jsonl::Object cfg;
    cfg.emplace_back("symbols", jsonl::Value(48));
    cfg.emplace_back("seed", jsonl::Value(5));
    cfg.emplace_back("phi", jsonl::Value(phiName));
    cfg.emplace_back("hold", listValue(spec.holdInputs));
    cfg.emplace_back("data", listValue(spec.dataOutputs));
    cfg.emplace_back("alt", listValue(spec.altOutputs));
    cfg.emplace_back("code_pairs", listValue(spec.codePairs));
    jsonl::Object req;
    req.emplace_back("op", jsonl::Value("submit"));
    req.emplace_back("kind", jsonl::Value("seq"));
    req.emplace_back("circuit",
                     jsonl::Value(netlist::writeNetlistToString(net)));
    req.emplace_back("config", jsonl::Value(std::move(cfg)));

    Client client(path_);
    const jsonl::Value res =
        client.submitAndWait(jsonl::Value(std::move(req)));
    ASSERT_EQ(res.find("state")->asString(), "done")
        << (res.find("error") ? res.find("error")->asString() : "");

    fault::SeqCampaignOptions opts;
    opts.symbols = 48;
    opts.seed = 5;
    opts.jobs = 1;
    const auto inlineRes =
        fault::runSequentialCampaign(net, spec, opts);
    EXPECT_EQ(res.find("verdict")->asString(),
              fault::seqCampaignVerdictJson(net, inlineRes));
}

TEST_F(ServerTest, SeqBatchKnobTogglesHitTheSameCacheEntry)
{
    const auto sm = seq::reynoldsDetector();
    const netlist::Netlist net = roundTripped(sm.net);
    const fault::SeqCampaignSpec spec = seq::campaignSpec(sm);
    const std::string phiName =
        net.gate(net.inputs()[static_cast<std::size_t>(sm.phiInput)])
            .name;
    const std::string circuit = netlist::writeNetlistToString(net);

    const auto seqSubmit = [&](bool batch, bool seqdom) {
        const auto listValue = [](const std::vector<int> &v) {
            jsonl::Array arr;
            for (int i : v)
                arr.emplace_back(i);
            return jsonl::Value(std::move(arr));
        };
        jsonl::Object cfg;
        cfg.emplace_back("symbols", jsonl::Value(48));
        cfg.emplace_back("seed", jsonl::Value(9));
        cfg.emplace_back("seq_fault_batch", jsonl::Value(batch));
        cfg.emplace_back("seq_dominance", jsonl::Value(seqdom));
        cfg.emplace_back("phi", jsonl::Value(phiName));
        cfg.emplace_back("hold", listValue(spec.holdInputs));
        cfg.emplace_back("data", listValue(spec.dataOutputs));
        cfg.emplace_back("alt", listValue(spec.altOutputs));
        cfg.emplace_back("code_pairs", listValue(spec.codePairs));
        jsonl::Object req;
        req.emplace_back("op", jsonl::Value("submit"));
        req.emplace_back("kind", jsonl::Value("seq"));
        req.emplace_back("circuit", jsonl::Value(circuit));
        req.emplace_back("config", jsonl::Value(std::move(cfg)));
        return jsonl::Value(std::move(req));
    };

    Client client(path_);
    const jsonl::Value cold =
        client.submitAndWait(seqSubmit(true, true));
    ASSERT_EQ(cold.find("state")->asString(), "done")
        << (cold.find("error") ? cold.find("error")->asString() : "");
    EXPECT_FALSE(cold.find("cache_hit")->asBool());

    // Opposite settings of the retired knob keys from a fresh
    // connection: the protocol ignores them (old clients still send
    // them), so this is a cache hit with the identical verdict bytes.
    Client again(path_);
    const jsonl::Value warm =
        again.submitAndWait(seqSubmit(false, false));
    ASSERT_EQ(warm.find("state")->asString(), "done");
    EXPECT_TRUE(warm.find("cache_hit")->asBool());
    EXPECT_EQ(warm.find("verdict")->asString(),
              cold.find("verdict")->asString());
}

/** Send @p lines over a fresh raw connection to @p path and collect
 *  the first @p n reply lines. */
std::vector<jsonl::Value>
rawExchange(const std::string &path, const std::string &lines,
            std::size_t n)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    for (std::size_t sent = 0; sent < lines.size();) {
        const ssize_t k =
            ::send(fd, lines.data() + sent, lines.size() - sent, 0);
        if (k <= 0)
            break;
        sent += static_cast<std::size_t>(k);
    }

    jsonl::LineBuffer buf;
    std::vector<jsonl::Value> responses;
    char chunk[4096];
    while (responses.size() < n) {
        const ssize_t k = ::recv(fd, chunk, sizeof chunk, 0);
        if (k <= 0)
            break;
        buf.feed(chunk, static_cast<std::size_t>(k));
        std::string line;
        while (buf.pop(&line))
            responses.push_back(jsonl::parse(line));
    }
    ::close(fd);
    return responses;
}

TEST_F(ServerTest, MalformedRequestsGetLineNumberedErrors)
{
    // Raw socket: feed broken and valid lines and check each error
    // carries the 1-based line number it arrived on.
    const std::string lines = "this is not json\n"
                              "{\"no_op\":1}\n"
                              "{\"op\":\"warp\"}\n"
                              "{\"op\":\"submit\",\"kind\":\"comb\"}\n"
                              "{\"op\":\"status\",\"id\":42}\n";
    const std::vector<jsonl::Value> responses =
        rawExchange(path_, lines, 5);
    ASSERT_EQ(responses.size(), 5u);

    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_FALSE(responses[i].find("ok")->asBool()) << i;
        EXPECT_EQ(responses[i].find("line")->asUint64(), i + 1) << i;
    }
    EXPECT_NE(responses[0].find("error")->asString().find("bad JSON"),
              std::string::npos);
    EXPECT_NE(responses[2].find("error")->asString().find("unknown op"),
              std::string::npos);
    EXPECT_NE(responses[3].find("error")->asString().find("circuit"),
              std::string::npos);
    EXPECT_NE(
        responses[4].find("error")->asString().find("no such job"),
        std::string::npos);
}

TEST_F(ServerTest, DeeplyNestedLineIsAnErrorNotACrash)
{
    // One line of 500,000 '[' used to overflow the parser's stack and
    // kill the daemon with every other client's jobs. It must be a
    // located error reply, and the daemon must keep serving: the same
    // connection answers its next line, and a fresh submit completes.
    const std::string deep(500000, '[');
    const std::vector<jsonl::Value> responses =
        rawExchange(path_, deep + "\n{\"op\":\"stats\"}\n", 2);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_FALSE(responses[0].find("ok")->asBool());
    EXPECT_EQ(responses[0].find("line")->asUint64(), 1u);
    EXPECT_NE(responses[0].find("error")->asString().find("nesting"),
              std::string::npos)
        << responses[0].find("error")->asString();
    EXPECT_TRUE(responses[1].find("ok")->asBool());

    Client client(path_);
    const jsonl::Value done = client.submitAndWait(combSubmit(
        roundTripped(netlist::circuits::section36NetworkRepaired()), 5));
    ASSERT_TRUE(done.find("ok")->asBool());
    EXPECT_EQ(done.find("state")->asString(), "done");
}

TEST(ServerLimits, OversizedRequestLineIsALocatedErrorAndAClose)
{
    Server::Options o;
    o.socketPath = "/tmp/scal_test_" + std::to_string(::getpid()) +
                   "_limits.sock";
    o.scheduler.maxInflight = 1;
    Server server(std::move(o));
    server.start();

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, server.socketPath().c_str(),
                 sizeof addr.sun_path - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    // One good request, then a line that never ends within the cap.
    // The daemon may hang up before the tail is sent.
    const std::string out = "{\"op\":\"stats\"}\n" +
                            std::string(jsonl::kMaxLineBytes + 4096, 'x');
    for (std::size_t sent = 0; sent < out.size();) {
        const ssize_t k = ::send(fd, out.data() + sent, out.size() - sent,
                                 MSG_NOSIGNAL);
        if (k <= 0)
            break;
        sent += static_cast<std::size_t>(k);
    }

    jsonl::LineBuffer buf(jsonl::LineBuffer::kUnbounded);
    std::vector<jsonl::Value> responses;
    char chunk[4096];
    ssize_t k;
    while ((k = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
        buf.feed(chunk, static_cast<std::size_t>(k));
        std::string line;
        while (buf.pop(&line))
            responses.push_back(jsonl::parse(line));
    }
    ::close(fd);
    // The daemon closed the connection: an EOF, or a reset when the
    // oversized bytes were still unread.
    EXPECT_LE(k, 0);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_TRUE(responses[0].find("ok")->asBool());
    EXPECT_FALSE(responses[1].find("ok")->asBool());
    EXPECT_EQ(responses[1].find("line")->asUint64(), 2u);
    EXPECT_NE(responses[1].find("error")->asString().find(
                  "exceeds " + std::to_string(jsonl::kMaxLineBytes)),
              std::string::npos)
        << responses[1].find("error")->asString();

    // Other clients are unaffected.
    Client client(server.socketPath());
    jsonl::Object req;
    req.emplace_back("op", jsonl::Value("stats"));
    EXPECT_TRUE(
        client.request(jsonl::Value(std::move(req))).find("ok")->asBool());
    server.stop();
}

TEST_F(ServerTest, ShutdownOpStopsTheDaemon)
{
    Client client(path_);
    const jsonl::Value res = client.request(
        jsonl::Value(jsonl::Object{{"op", jsonl::Value("shutdown")}}));
    EXPECT_TRUE(res.find("ok")->asBool());
    server_->waitShutdown(); // returns because the op set the flag
}

} // namespace
} // namespace scal
