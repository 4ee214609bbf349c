/**
 * @file
 * The campaign benchmark. One invocation runs one workload:
 *
 *   scal_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-file PATH] [--root DIR] [--scratch DIR]
 *                  [--corrupt-reference]
 *
 * and prints, as its last stdout line, one JSON object with the keys
 * correct, attempted, failed and metrics. With --trace 0 the metrics
 * are the end-to-end ones (host time, tracing off); with --trace 1
 * they are the per-layer ones from a separate traced run. Workloads,
 * metric definitions and the layer map are documented in README.md
 * next to this file.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/report.hh"
#include "fault/shard.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/io.hh"
#include "pipeline.hh"
#include "server/cache.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "system/alu.hh"
#include "system/campaign.hh"
#include "trace.hh"

namespace
{

using namespace scal;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::Tracer;
namespace jsonl = server::jsonl;

// ---------------------------------------------------------------------
// Workload sizes. Chosen so one run measures a few hundred (comb,
// service) or a dozen or more (seq, shard) operations in --seconds,
// and so the whole invocation stays well under a minute on 4 cores.

constexpr std::uint64_t kCombPatterns = 8192; ///< comb_c1908 per campaign
constexpr int kCombConfigs = 4;               ///< distinct seeds per run
constexpr long kS1488Symbols = 16;            ///< seq_sclass
constexpr long kS5378Symbols = 2;
constexpr long kShardSymbols = 2;             ///< shard_resume, s1488
constexpr std::uint64_t kShardPatterns = 1024; ///< shard_resume, c880
constexpr int kShardConfigs = 4;               ///< distinct seeds per run
constexpr int kCancelAfterCheckpoints = 2;
/** Set-ups timed per run. The host's single-thread speed changes over
 *  seconds, so the first half runs before the timed loop and the rest
 *  after it, and the median spans the whole run. */
constexpr int kSetupReps = 9;
constexpr int kSeqSetupReps = 5;  ///< s5378-class set-up alone is ~2.5 s
constexpr int kServiceSetupReps = 15; ///< service set-up is milliseconds
constexpr int kTracedReps = 3;
constexpr int kServiceClients = 2;
constexpr std::size_t kServiceCacheEntries = 16;
/** One repeat (a likely cache hit) after this many fresh jobs. */
constexpr int kFreshPerRepeat = 3;

// ---------------------------------------------------------------------
// Small helpers.

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Campaign seed k of a workload seed (never 0). */
std::uint64_t
derivedSeed(std::uint64_t seed, std::uint64_t k)
{
    return (mix(seed * 1000003ull + k) >> 1) | 1;
}

/** Linear-interpolated quantile (q in [0,1]) of @p v. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Harrell-Davis estimate of quantile q in (0,1): the mean of all order
 * statistics, weighted by the Beta((n+1)q, (n+1)(1-q)) mass over their
 * rank intervals. A run's latencies come in a few job types, and a
 * plain order statistic that falls on the border between two types
 * jumps between them from run to run; this estimate moves smoothly.
 */
double
hdQuantile(std::vector<double> v, double q)
{
    if (v.size() < 2)
        return v.empty() ? 0 : v[0];
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const double a = (n + 1) * q, b = (n + 1) * (1 - q);
    const double lnB = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
    const auto pdf = [&](double x) {
        return x <= 0 || x >= 1
                   ? 0.0
                   : std::exp((a - 1) * std::log(x) + (b - 1) * std::log1p(-x) - lnB);
    };
    constexpr int kSteps = 16; // Simpson sub-steps per rank interval
    double sum = 0, wsum = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const double lo = static_cast<double>(i) / n;
        const double h = 1 / (n * kSteps);
        double w = pdf(lo) + pdf(lo + kSteps * h);
        for (int k = 1; k < kSteps; ++k)
            w += (k % 2 ? 4 : 2) * pdf(lo + k * h);
        w *= h / 3;
        sum += w * v[i];
        wsum += w;
    }
    return wsum > 0 ? sum / wsum : quantile(v, q);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Integer field "key": N of a verdict/tail JSON text (-1 if absent). */
double
jsonNumber(const std::string &text, const std::string &key)
{
    const std::string pat = "\"" + key + "\": ";
    const auto at = text.find(pat);
    if (at == std::string::npos)
        return -1;
    return std::strtod(text.c_str() + at + pat.size(), nullptr);
}

std::string
formatNumber(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

// ---------------------------------------------------------------------
// The result line.

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Deterministic work counts, printed with every run. */
    std::vector<std::pair<std::string, double>> counts;
    std::vector<std::string> notes;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record one checked operation. */
    void check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (notes.size() < 20)
                notes.push_back("FAILED: " + what);
        }
    }

    void count(const std::string &name, double v) { counts.emplace_back(name, v); }

    /** 32-bit FNV of the counts, so runs compare at a glance. */
    double countsDigest() const
    {
        std::string s;
        for (const auto &[k, v] : counts)
            s += k + "=" + formatNumber(v) + ";";
        return static_cast<double>(netlist::fnv1a64(s) & 0xffffffffull);
    }
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceFile;
    std::string root = ".";
    std::string scratch = ".bench_build";
    bool corruptReference = false;
};

int
nproc()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Threads a timed campaign uses: half the cores. At jobs = nproc one
 * stalled vCPU (steal from other tenants of a shared host) holds up
 * the whole campaign, since the slowest chunk sets its end; measured
 * on a 4-vCPU VM that doubled the run-to-run spread of campaign_s.
 */
int
campaignJobs()
{
    return std::max(1, nproc() / 2);
}

/** The reference configuration differs from the timed one on the
 *  jobs and SIMD axes (and, for comb, the lane width). */
int
referenceJobs()
{
    return campaignJobs() + 1;
}

/** Expected digest lookup with the self-test's corruption switch. */
struct References
{
    bool corrupt = false;
    std::map<std::string, std::uint64_t> digest;

    void put(const std::string &key, std::uint64_t d)
    {
        digest[key] = corrupt ? d ^ 1 : d;
    }
    bool matches(const std::string &key, std::uint64_t d) const
    {
        const auto it = digest.find(key);
        return it != digest.end() && it->second == d;
    }
};

/** Checks that every repetition of one config reports equal counts. */
struct DriftCheck
{
    std::map<std::string, std::vector<long>> first;

    bool same(const std::string &key, const std::vector<long> &c)
    {
        auto [it, fresh] = first.emplace(key, c);
        return fresh || it->second == c;
    }
};

/** One timed operation's host times. */
struct Sample
{
    double latency = 0;  ///< submit to checked verdict, seconds
    double campaign = 0; ///< campaign call to final verdict, seconds
    double evals = 0;    ///< fault evaluations the campaign covers
};

/** The end-to-end metrics. @p meanCampaign reports campaign_s as the
 *  mean instead of the median, for a run mixing many job sizes;
 *  @p jobsPerS, when given, replaces operations / @p wall. */
void
addEndToEnd(Report &rep, const std::vector<double> &setup,
            const std::vector<Sample> &samples, double wall, double peakMiB,
            bool meanCampaign = false, double jobsPerS = -1)
{
    std::vector<double> lat, camp;
    double evals = 0, campSum = 0;
    for (const Sample &s : samples) {
        lat.push_back(s.latency);
        if (s.campaign > 0) {
            camp.push_back(s.campaign);
            evals += s.evals;
            campSum += s.campaign;
        }
    }
    rep.add("setup_s", median(setup), "s");
    rep.add("campaign_s",
            meanCampaign && !camp.empty()
                ? campSum / static_cast<double>(camp.size())
                : median(camp),
            "s");
    rep.add("fault_evals_per_s", campSum > 0 ? evals / campSum : 0, "1/s");
    rep.add("peak_rss_mb", peakMiB, "MiB");
    rep.add("latency_p50_ms", 1e3 * hdQuantile(lat, 0.5), "ms");
    rep.add("latency_p90_ms", 1e3 * hdQuantile(lat, 0.9), "ms");
    if (jobsPerS < 0)
        jobsPerS = wall > 0 ? static_cast<double>(samples.size()) / wall : 0;
    rep.add("jobs_per_s", jobsPerS, "1/s");
    rep.notes.push_back("samples=" + std::to_string(samples.size()) +
                        " wall_s=" + formatNumber(wall));
    std::string reps = "setup_s reps:";
    for (const double v : setup)
        reps += " " + formatNumber(v);
    rep.notes.push_back(reps);
}

/** Per-layer metrics; every workload reports the full set, with 0 for
 *  layers it does not exercise. */
const std::vector<std::pair<std::string, std::string>> &
perLayerCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> c = {
        {"ingest.parse_s", "s"},
        {"ingest.harden_s", "s"},
        {"ingest.verify_s", "s"},
        {"netlist.content_hash_s", "s"},
        {"fault.collapse_s", "s"},
        {"fault.classes", "count"},
        {"fault.collapse_ratio", "ratio"},
        {"fault.merge_s", "s"},
        {"fault.resumed_units", "count"},
        {"fault.verdict_json_s", "s"},
        {"sim.flat_compile_s", "s"},
        {"sim.batch_plan_s", "s"},
        {"sim.seq_plan_s", "s"},
        {"sim.pruned_classes", "count"},
        {"sim.good_sim_s", "s"},
        {"sim.classify_s", "s"},
        {"sim.flip_classes", "count"},
        {"sim.cpt_classes", "count"},
        {"sim.sim_classes", "count"},
        {"sim.batches_per_block", "count"},
        {"sim.seq_trace_s", "s"},
        {"sim.seq_batch_run_s", "s"},
        {"sim.seq_batches", "count"},
        {"sim.seq_lane_occupancy", "ratio"},
        {"sim.seq_periods_simulated", "count"},
        {"sim.seq_retired_frac", "ratio"},
        {"engine.shard_imbalance", "ratio"},
        {"engine.checkpoints", "count"},
        {"engine.checkpoint_bytes", "bytes"},
        {"engine.resume_decode_s", "s"},
        {"server.queue_wait_ms", "ms"},
        {"server.hit_latency_p50_ms", "ms"},
        {"server.cache_hit_ratio", "ratio"},
        {"server.cache_lookup_us", "us"},
        {"server.cache_insertions", "count"},
        {"server.cache_evictions", "count"},
        {"server.jsonl_parse_us", "us"},
        {"server.rejected", "count"},
        {"system.campaign_s", "s"},
        {"self.ingest_s", "s"},
        {"self.netlist_s", "s"},
        {"self.fault_s", "s"},
        {"self.sim_s", "s"},
        {"self.engine_s", "s"},
        {"self.server_s", "s"},
        {"self.system_s", "s"},
        {"other_s", "s"},
        {"trace.campaign_s", "s"},
        {"trace.overhead_s", "s"},
        {"failed_frac", "ratio"},
    };
    return c;
}

/** Fill the traced run's metrics: span totals per traced repetition,
 *  layer self times, the uncovered remainder of the campaign spans. */
void
addSpanMetrics(std::map<std::string, double> &m, double reps)
{
    const Tracer &t = Tracer::instance();
    const auto per = [&](const char *span) {
        return t.totalSeconds(span) / reps;
    };
    m["ingest.parse_s"] = per("ingest.parse");
    m["ingest.harden_s"] = per("ingest.harden");
    m["ingest.verify_s"] = per("ingest.verify");
    m["netlist.content_hash_s"] = per("netlist.content_hash");
    m["fault.collapse_s"] = per("fault.collapse");
    m["fault.merge_s"] = per("fault.merge");
    m["fault.verdict_json_s"] = per("fault.verdict_json");
    m["sim.flat_compile_s"] = per("sim.flat_compile");
    m["sim.batch_plan_s"] = per("sim.batch_plan");
    m["sim.seq_plan_s"] = per("sim.seq_plan");
    m["sim.good_sim_s"] = per("sim.good_sim");
    m["sim.classify_s"] = per("sim.classify");
    m["sim.seq_trace_s"] = per("sim.seq_trace");
    m["sim.seq_batch_run_s"] = per("sim.seq_batch_run");
    m["engine.resume_decode_s"] = per("engine.resume_decode");
    m["system.campaign_s"] = per("system.campaign");
    const auto self = t.selfSeconds();
    const auto selfOf = [&](const char *layer) {
        const auto it = self.find(layer);
        return it == self.end() ? 0.0 : it->second / reps;
    };
    for (const char *layer :
         {"ingest", "netlist", "fault", "sim", "engine", "server", "system"})
        m[std::string("self.") + layer + "_s"] = selfOf(layer);
    m["other_s"] = selfOf("campaign");
}

Report
finishTraced(std::map<std::string, double> m, Report rep,
             const Args &args)
{
    m["failed_frac"] = rep.attempted
                           ? static_cast<double>(rep.failed) /
                                 static_cast<double>(rep.attempted)
                           : 0;
    for (const auto &[name, unit] : perLayerCatalog())
        rep.add(name, m.count(name) ? m[name] : 0.0, unit);
    if (!args.traceFile.empty() &&
        !Tracer::instance().writeChromeTrace(args.traceFile))
        throw std::runtime_error("cannot write " + args.traceFile);
    return rep;
}

std::string
circuitText(const Args &args, const std::string &file)
{
    return readFile(args.root + "/circuits/" + file);
}

// ---------------------------------------------------------------------
// comb_c1908

fault::CampaignOptions
combOptions(std::uint64_t seed, std::uint64_t patterns)
{
    fault::CampaignOptions o;
    o.maxPatterns = patterns;
    o.seed = seed;
    o.jobs = campaignJobs();
    return o;
}

fault::CampaignOptions
combReferenceOptions(fault::CampaignOptions o)
{
    o.jobs = referenceJobs();
    o.lanes = 64;
    o.simd = sim::SimdTarget::Portable;
    return o;
}

std::vector<long>
combCounts(const fault::CampaignResult &r)
{
    return {r.fp.classes, r.fp.prunedClasses, r.fp.flipClasses,
            r.fp.cptClasses, r.fp.simClasses, static_cast<long>(r.fp.batches),
            r.numDetected, r.numUnsafe, r.numUntestable};
}

Report
runComb(const Args &args)
{
    Report rep;
    const std::string text = circuitText(args, "c1908.bench");
    std::vector<double> setup;
    std::unique_ptr<perfbench::CombSetup> s;
    const auto timeSetups = [&](int n) {
        for (int i = 0; i < n; ++i) {
            s.reset(); // the previous set-up's teardown is not timed
            const auto t0 = Clock::now();
            s = perfbench::setupComb(text);
            setup.push_back(secondsSince(t0));
        }
    };
    timeSetups(kSetupReps - kSetupReps / 2);

    References refs;
    refs.corrupt = args.corruptReference;
    std::vector<fault::CampaignOptions> cfgs;
    for (int k = 0; k < kCombConfigs; ++k) {
        cfgs.push_back(combOptions(derivedSeed(args.seed, k), kCombPatterns));
        const auto ref = fault::runAlternatingCampaign(
            s->net, combReferenceOptions(cfgs.back()));
        refs.put(std::to_string(k), perfbench::verdictDigest(
                                        fault::campaignVerdictJson(s->net, ref)));
    }

    DriftCheck drift;
    const double evals = static_cast<double>(s->faults.size()) *
                         static_cast<double>(kCombPatterns);
    const auto runOne = [&](int k, Sample *out) {
        const auto t0 = Clock::now();
        const auto r = fault::runAlternatingCampaign(s->net, cfgs[k]);
        const double camp = secondsSince(t0);
        const auto d = perfbench::verdictDigest(
            fault::campaignVerdictJson(s->net, r));
        const auto c = combCounts(r);
        out->latency = secondsSince(t0);
        out->campaign = camp;
        out->evals = evals;
        rep.check(refs.matches(std::to_string(k), d),
                  "c1908 verdict digest, config " + std::to_string(k));
        rep.check(drift.same(std::to_string(k), c),
                  "c1908 counts drift, config " + std::to_string(k));
        return r;
    };

    Sample warm;
    const auto first = runOne(0, &warm);
    rep.count("fault.classes", first.fp.classes);
    rep.count("sim.pruned_classes", first.fp.prunedClasses);
    rep.count("sim.flip_classes", first.fp.flipClasses);
    rep.count("sim.cpt_classes", first.fp.cptClasses);
    rep.count("sim.sim_classes", first.fp.simClasses);
    rep.count("sim.batches_per_block", static_cast<double>(first.fp.batches));

    if (!args.trace) {
        std::vector<Sample> samples;
        const auto t0 = Clock::now();
        while (secondsSince(t0) < args.seconds)
            for (int k = 0; k < kCombConfigs; ++k) {
                samples.emplace_back();
                runOne(k, &samples.back());
            }
        const double wall = secondsSince(t0);
        const double peak = peakRssMiB();
        timeSetups(kSetupReps / 2);
        addEndToEnd(rep, setup, samples, wall, peak);
        return rep;
    }

    std::vector<double> untraced, traced;
    for (int i = 0; i < kTracedReps; ++i) {
        Sample smp;
        runOne(i % kCombConfigs, &smp);
        untraced.push_back(smp.campaign);
    }
    Tracer::instance().setEnabled(true);
    perfbench::CombCounts cc;
    for (int i = 0; i < kTracedReps; ++i) {
        Tracer::instance().beginOp();
        ScopedSpan op("op");
        s = perfbench::setupComb(text);
        const int k = i % kCombConfigs;
        cc = {};
        const auto t0 = Clock::now();
        const std::string v = perfbench::tracedCombCampaign(s->net, cfgs[k], &cc);
        traced.push_back(secondsSince(t0));
        rep.check(refs.matches(std::to_string(k), perfbench::verdictDigest(v)),
                  "traced c1908 verdict digest");
        rep.check(static_cast<long>(cc.batchesPerBlock) ==
                      static_cast<long>(first.fp.batches) &&
                      cc.classes == first.fp.classes,
                  "traced c1908 counts equal the campaign's");
    }
    Tracer::instance().setEnabled(false);

    std::map<std::string, double> m;
    addSpanMetrics(m, kTracedReps);
    m["fault.classes"] = cc.classes;
    m["fault.collapse_ratio"] = s->col.ratio();
    m["sim.pruned_classes"] = cc.pruned;
    m["sim.flip_classes"] = cc.flip;
    m["sim.cpt_classes"] = cc.cpt;
    m["sim.sim_classes"] = cc.sim;
    m["sim.batches_per_block"] = static_cast<double>(cc.batchesPerBlock);
    m["trace.campaign_s"] = median(traced);
    m["trace.overhead_s"] = median(traced) - median(untraced);
    return finishTraced(std::move(m), std::move(rep), args);
}

// ---------------------------------------------------------------------
// seq_sclass

struct SeqJob
{
    const perfbench::SeqSetup *setup;
    fault::SeqCampaignOptions opts;
    std::string key;
};

fault::SeqCampaignOptions
seqOptions(std::uint64_t seed, long symbols)
{
    fault::SeqCampaignOptions o;
    o.symbols = symbols;
    o.seed = seed;
    o.jobs = campaignJobs();
    return o;
}

fault::SeqCampaignOptions
seqReferenceOptions(fault::SeqCampaignOptions o)
{
    o.jobs = referenceJobs();
    o.simd = sim::SimdTarget::Portable;
    return o;
}

double
seqEvals(const netlist::Netlist &net, const fault::SeqCampaignOptions &o)
{
    return static_cast<double>(net.allFaults().size()) * 2.0 *
           static_cast<double>(o.symbols) * static_cast<double>(o.lanes);
}

std::vector<long>
seqCounts(const fault::SeqCampaignResult &r)
{
    return {r.classes, r.batchedClasses, r.batches, r.periodsSimulated,
            r.periodsSkipped, r.retiredEarly, r.numDetected, r.numUnsafe,
            r.numUntestable};
}

Report
runSeq(const Args &args)
{
    Report rep;
    const std::string t1488 = circuitText(args, "s1488-class.bench");
    const std::string t5378 = circuitText(args, "s5378-class.bench");
    std::vector<double> setup;
    std::unique_ptr<perfbench::SeqSetup> a, b;
    const auto timeSetups = [&](int n) {
        for (int i = 0; i < n; ++i) {
            a.reset();
            b.reset();
            const auto t0 = Clock::now();
            a = perfbench::setupSeq(t1488);
            b = perfbench::setupSeq(t5378);
            setup.push_back(secondsSince(t0));
        }
    };
    timeSetups(kSeqSetupReps - kSeqSetupReps / 2);

    // One cycle: three s1488-class campaigns, then one s5378-class,
    // so the median falls on the small machine and p90 on the large.
    const std::vector<SeqJob> jobs = {
        {a.get(), seqOptions(derivedSeed(args.seed, 0), kS1488Symbols), "s1488"},
        {a.get(), seqOptions(derivedSeed(args.seed, 0), kS1488Symbols), "s1488"},
        {a.get(), seqOptions(derivedSeed(args.seed, 0), kS1488Symbols), "s1488"},
        {b.get(), seqOptions(derivedSeed(args.seed, 1), kS5378Symbols), "s5378"},
    };
    References refs;
    refs.corrupt = args.corruptReference;
    for (const SeqJob &j : {jobs[0], jobs[3]}) {
        const auto ref = fault::runSequentialCampaign(
            j.setup->net, j.setup->spec, seqReferenceOptions(j.opts));
        refs.put(j.key, perfbench::verdictDigest(
                            fault::seqCampaignVerdictJson(j.setup->net, ref)));
    }

    DriftCheck drift;
    const auto runOne = [&](const SeqJob &j, Sample *out) {
        const auto t0 = Clock::now();
        const auto r = fault::runSequentialCampaign(j.setup->net,
                                                    j.setup->spec, j.opts);
        const double camp = secondsSince(t0);
        const auto d = perfbench::verdictDigest(
            fault::seqCampaignVerdictJson(j.setup->net, r));
        out->latency = secondsSince(t0);
        out->campaign = camp;
        out->evals = seqEvals(j.setup->net, j.opts);
        rep.check(refs.matches(j.key, d), j.key + " verdict digest");
        rep.check(drift.same(j.key, seqCounts(r)), j.key + " counts drift");
        return r;
    };

    Sample warm;
    for (const SeqJob &j : {jobs[0], jobs[3]}) {
        const auto r = runOne(j, &warm);
        rep.count(j.key + ".sim.seq_batches", r.batches);
        rep.count(j.key + ".sim.seq_periods_simulated",
                  static_cast<double>(r.periodsSimulated));
        rep.count(j.key + ".retired_early", static_cast<double>(r.retiredEarly));
        rep.count(j.key + ".fault.classes", r.classes);
    }

    if (!args.trace) {
        std::vector<Sample> samples;
        const auto t0 = Clock::now();
        while (secondsSince(t0) < args.seconds)
            for (const SeqJob &j : jobs) {
                samples.emplace_back();
                runOne(j, &samples.back());
            }
        const double wall = secondsSince(t0);
        const double peak = peakRssMiB();
        timeSetups(kSeqSetupReps / 2);
        addEndToEnd(rep, setup, samples, wall, peak);
        return rep;
    }

    std::vector<double> untraced, traced;
    std::map<std::string, fault::SeqCampaignResult> real;
    for (int i = 0; i < kTracedReps; ++i) {
        double sum = 0;
        for (const SeqJob &j : {jobs[0], jobs[3]}) {
            Sample smp;
            real[j.key] = runOne(j, &smp);
            sum += smp.campaign;
        }
        untraced.push_back(sum);
    }
    Tracer::instance().setEnabled(true);
    perfbench::SeqCounts total;
    double classes = 0, pruned = 0, faults = 0;
    for (int i = 0; i < kTracedReps; ++i) {
        Tracer::instance().beginOp();
        ScopedSpan op("op");
        a = perfbench::setupSeq(t1488);
        b = perfbench::setupSeq(t5378);
        double sum = 0;
        total = {};
        classes = pruned = faults = 0;
        for (const SeqJob &j0 : {jobs[0], jobs[3]}) {
            const SeqJob j{j0.key == "s1488" ? a.get() : b.get(), j0.opts, j0.key};
            perfbench::SeqCounts sc;
            const auto t0 = Clock::now();
            const std::string v = perfbench::tracedSeqCampaign(
                j.setup->net, j.setup->spec, j.opts, &sc);
            sum += secondsSince(t0);
            rep.check(refs.matches(j.key, perfbench::verdictDigest(v)),
                      "traced " + j.key + " verdict digest");
            const auto &r = real[j.key];
            rep.check(sc.batches == r.batches &&
                          sc.periodsSimulated == r.periodsSimulated &&
                          sc.retiredEarly == r.retiredEarly,
                      "traced " + j.key + " counts equal the campaign's");
            total.batches += sc.batches;
            total.members += sc.members;
            total.groupsPerBatch = std::max(total.groupsPerBatch, sc.groupsPerBatch);
            total.periodsSimulated += sc.periodsSimulated;
            total.retiredEarly += sc.retiredEarly;
            total.sites += sc.sites;
            classes += static_cast<double>(j.setup->col.representatives.size());
            pruned += j.setup->col.prunedClasses;
            faults += static_cast<double>(j.setup->col.totalFaults);
        }
        traced.push_back(sum);
    }
    Tracer::instance().setEnabled(false);

    std::map<std::string, double> m;
    addSpanMetrics(m, kTracedReps);
    m["fault.classes"] = classes;
    m["fault.collapse_ratio"] = faults > 0 ? (classes - pruned) / faults : 0;
    m["sim.pruned_classes"] = pruned;
    m["sim.seq_batches"] = static_cast<double>(total.batches);
    m["sim.seq_lane_occupancy"] =
        total.batches && total.groupsPerBatch
            ? static_cast<double>(total.members) /
                  static_cast<double>(total.batches * total.groupsPerBatch)
            : 0;
    m["sim.seq_periods_simulated"] = static_cast<double>(total.periodsSimulated);
    m["sim.seq_retired_frac"] =
        total.sites ? static_cast<double>(total.retiredEarly) /
                          static_cast<double>(total.sites)
                    : 0;
    m["trace.campaign_s"] = median(traced);
    m["trace.overhead_s"] = median(traced) - median(untraced);
    return finishTraced(std::move(m), std::move(rep), args);
}

// ---------------------------------------------------------------------
// shard_resume

struct ShardStats
{
    long checkpoints = 0;
    double checkpointBytes = 0;
    double resumedUnits = 0;
    double imbalance = 0;
};

/**
 * The decode a resumed shard call starts with (snapshot validation, then
 * the payload), repeated outside the call so the traced run can time
 * it: the shard functions do not expose their own decode step.
 */
void
tracedResumeDecode(const std::vector<std::uint8_t> &snapshot)
{
    ScopedSpan d("engine.resume_decode");
    std::vector<std::uint8_t> payload;
    const engine::SnapshotHeader h = engine::decodeSnapshot(snapshot, &payload);
    if (h.kind == "seq")
        fault::shard_detail::decodeSeqPayload(payload, "<memory>");
    else
        fault::shard_detail::decodeCombPayload(payload, "<memory>");
}

/**
 * Run one campaign as max(2, campaignJobs()) cost-weighted shards on concurrent
 * threads (jobs=1 each, automatic checkpoint cadence into memory).
 * Shard 0 is cancelled after kCancelAfterCheckpoints snapshots and
 * resumed from the last one. Returns the partials in shard order.
 */
std::vector<std::vector<std::uint8_t>>
runShards(const std::function<fault::ShardOutcome(
              const engine::ShardSpec &, const engine::CancelToken *,
              const fault::CheckpointOptions &)> &shardFn,
          ShardStats *st)
{
    const int n = std::max(2, campaignJobs());
    std::vector<std::vector<std::uint8_t>> partials(static_cast<std::size_t>(n));
    std::vector<double> busy(static_cast<std::size_t>(n), 0);
    std::vector<long> ckpts(static_cast<std::size_t>(n), 0);
    std::vector<double> bytes(static_cast<std::size_t>(n), 0);
    std::vector<double> resumed(static_cast<std::size_t>(n), 0);
    std::vector<std::string> errors(static_cast<std::size_t>(n));
    const perfbench::SpanContext ctx = Tracer::instance().current();
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i)
        threads.emplace_back([&, i] {
            const std::size_t u = static_cast<std::size_t>(i);
            try {
                ScopedSpan span("engine.shard", ctx);
                const auto t0 = Clock::now();
                engine::CancelToken cancel;
                std::vector<std::uint8_t> last;
                long seen = 0;
                fault::CheckpointOptions ck;
                ck.every = -1;
                ck.sink = [&](const std::vector<std::uint8_t> &b, bool final) {
                    ++ckpts[u];
                    bytes[u] += static_cast<double>(b.size());
                    if (i == 0 && !final && ++seen == kCancelAfterCheckpoints) {
                        last = b;
                        cancel.requestStop();
                    }
                };
                const engine::ShardSpec spec{i, n};
                fault::ShardOutcome out;
                try {
                    out = shardFn(spec, i == 0 ? &cancel : nullptr, ck);
                } catch (const engine::CampaignCancelled &) {
                    if (Tracer::instance().enabled())
                        tracedResumeDecode(last);
                    fault::CheckpointOptions again = ck;
                    again.resume = &last;
                    ScopedSpan r("engine.resume");
                    out = shardFn(spec, nullptr, again);
                }
                resumed[u] = static_cast<double>(out.resumedUnits);
                partials[u] = std::move(out.partial);
                busy[u] = secondsSince(t0);
            } catch (const std::exception &e) {
                errors[u] = e.what();
            }
        });
    for (auto &t : threads)
        t.join();
    for (const std::string &e : errors)
        if (!e.empty())
            throw std::runtime_error("shard failed: " + e);
    double mean = 0, mx = 0;
    for (int i = 0; i < n; ++i) {
        const std::size_t u = static_cast<std::size_t>(i);
        mean += busy[u] / n;
        mx = std::max(mx, busy[u]);
        st->checkpoints += ckpts[u];
        st->checkpointBytes += bytes[u];
        st->resumedUnits += resumed[u];
    }
    st->imbalance += mean > 0 ? mx / mean : 0;
    return partials;
}

Report
runShard(const Args &args)
{
    Report rep;
    const std::string tSeq = circuitText(args, "s1488-class.bench");
    const std::string tComb = circuitText(args, "c880.bench");
    std::vector<double> setup;
    std::unique_ptr<perfbench::SeqSetup> sq;
    std::unique_ptr<perfbench::CombSetup> cb;
    const auto timeSetups = [&](int n) {
        for (int i = 0; i < n; ++i) {
            sq.reset();
            cb.reset();
            const auto t0 = Clock::now();
            sq = perfbench::setupSeq(tSeq);
            cb = perfbench::setupComb(tComb);
            setup.push_back(secondsSince(t0));
        }
    };
    timeSetups(kSetupReps - kSetupReps / 2);

    // kShardConfigs seeds per run, cycled, so one run's median does
    // not rest on a single symbol stream's retirement pattern.
    std::vector<fault::SeqCampaignOptions> sos;
    std::vector<fault::CampaignOptions> cos;
    References refs;
    refs.corrupt = args.corruptReference;
    for (int k = 0; k < kShardConfigs; ++k) {
        sos.push_back(seqOptions(derivedSeed(args.seed, 2 * k), kShardSymbols));
        sos.back().jobs = 1;
        cos.push_back(combOptions(derivedSeed(args.seed, 2 * k + 1), kShardPatterns));
        cos.back().jobs = 1;
        // The reference is the unsharded campaign at another jobs/SIMD
        // configuration: the merged verdict must equal it byte for byte.
        const std::string ks = std::to_string(k);
        refs.put("seq" + ks, perfbench::verdictDigest(fault::seqCampaignVerdictJson(
                                 sq->net, fault::runSequentialCampaign(
                                              sq->net, sq->spec,
                                              seqReferenceOptions(sos.back())))));
        refs.put("comb" + ks, perfbench::verdictDigest(fault::campaignVerdictJson(
                                  cb->net, fault::runAlternatingCampaign(
                                               cb->net, combReferenceOptions(cos.back())))));
    }

    const double evals = seqEvals(sq->net, sos[0]) +
                         static_cast<double>(cb->faults.size()) *
                             static_cast<double>(kShardPatterns);
    DriftCheck drift;
    ShardStats last;
    const auto runOne = [&](int k, Sample *out) {
        const std::string ks = std::to_string(k);
        ShardStats st;
        const auto t0 = Clock::now();
        const auto seqParts = runShards(
            [&](const engine::ShardSpec &spec, const engine::CancelToken *c,
                const fault::CheckpointOptions &ck) {
                fault::SeqCampaignOptions o = sos[static_cast<std::size_t>(k)];
                o.cancel = c;
                return fault::runSequentialCampaignShard(sq->net, sq->spec, o,
                                                         spec, ck);
            },
            &st);
        fault::SeqCampaignResult seqRes;
        {
            ScopedSpan m("fault.merge");
            seqRes = fault::mergeSeqCampaignPartials(sq->net, seqParts);
        }
        const auto combParts = runShards(
            [&](const engine::ShardSpec &spec, const engine::CancelToken *c,
                const fault::CheckpointOptions &ck) {
                fault::CampaignOptions o = cos[static_cast<std::size_t>(k)];
                o.cancel = c;
                return fault::runAlternatingCampaignShard(cb->net, o, spec, ck);
            },
            &st);
        fault::CampaignResult combRes;
        {
            ScopedSpan m("fault.merge");
            combRes = fault::mergeCampaignPartials(cb->net, combParts);
        }
        const double camp = secondsSince(t0);
        std::string vs, vc;
        {
            ScopedSpan v("fault.verdict_json");
            vs = fault::seqCampaignVerdictJson(sq->net, seqRes);
            vc = fault::campaignVerdictJson(cb->net, combRes);
        }
        out->latency = secondsSince(t0);
        out->campaign = camp;
        out->evals = evals;
        st.imbalance /= 2; // mean over the two sharded campaigns
        rep.check(refs.matches("seq" + ks, perfbench::verdictDigest(vs)),
                  "merged s1488-class verdict equals unsharded");
        rep.check(refs.matches("comb" + ks, perfbench::verdictDigest(vc)),
                  "merged c880 verdict equals unsharded");
        rep.check(st.resumedUnits > 0, "shard 0 resumed from its checkpoint");
        rep.check(drift.same(ks, {st.checkpoints,
                                  static_cast<long>(st.checkpointBytes),
                                  static_cast<long>(st.resumedUnits)}),
                  "shard counts drift");
        last = st;
    };

    Sample warm;
    runOne(0, &warm);
    rep.count("engine.checkpoints", static_cast<double>(last.checkpoints));
    rep.count("engine.checkpoint_bytes", last.checkpointBytes);
    rep.count("fault.resumed_units", last.resumedUnits);

    if (!args.trace) {
        std::vector<Sample> samples;
        const auto t0 = Clock::now();
        while (secondsSince(t0) < args.seconds)
            for (int k = 0; k < kShardConfigs; ++k) {
                samples.emplace_back();
                runOne(k, &samples.back());
            }
        const double wall = secondsSince(t0);
        const double peak = peakRssMiB();
        timeSetups(kSetupReps / 2);
        addEndToEnd(rep, setup, samples, wall, peak);
        return rep;
    }

    std::vector<double> untraced, traced, imbalance;
    for (int i = 0; i < kTracedReps; ++i) {
        Sample smp;
        runOne(0, &smp);
        untraced.push_back(smp.campaign);
    }
    Tracer::instance().setEnabled(true);
    for (int i = 0; i < kTracedReps; ++i) {
        Tracer::instance().beginOp();
        ScopedSpan op("op");
        sq = perfbench::setupSeq(tSeq);
        cb = perfbench::setupComb(tComb);
        Sample smp;
        {
            ScopedSpan campaign("campaign");
            runOne(0, &smp);
        }
        traced.push_back(smp.campaign);
        imbalance.push_back(last.imbalance);
    }
    Tracer::instance().setEnabled(false);

    std::map<std::string, double> m;
    addSpanMetrics(m, kTracedReps);
    m["fault.classes"] = static_cast<double>(sq->col.representatives.size() +
                                             cb->col.representatives.size());
    m["fault.collapse_ratio"] =
        static_cast<double>(sq->col.simulatedClasses() + cb->col.simulatedClasses()) /
        static_cast<double>(sq->col.totalFaults + cb->col.totalFaults);
    m["fault.resumed_units"] = last.resumedUnits;
    m["engine.checkpoints"] = static_cast<double>(last.checkpoints);
    m["engine.checkpoint_bytes"] = last.checkpointBytes;
    m["engine.shard_imbalance"] = median(imbalance);
    m["trace.campaign_s"] = median(traced);
    m["trace.overhead_s"] = median(traced) - median(untraced);
    return finishTraced(std::move(m), std::move(rep), args);
}

// ---------------------------------------------------------------------
// service_mix

/** One request template of the mix. */
struct Template
{
    std::string kind;     ///< comb | seq | system
    std::string file;     ///< circuit under circuits/ (comb, seq)
    long budget = 0;      ///< max_patterns (comb) or symbols (seq)
    std::string workload; ///< system workload (system)
};

const std::vector<Template> &
serviceTemplates()
{
    // One job per bundled circuit and one per standard system workload.
    // Budgets keep each job small, but large enough that most jobs take
    // over 10 ms, so compute rather than the daemon's thread wake-ups
    // sets their latency (on c17 and add4 the budget covers every
    // input pattern and cannot grow).
    static const std::vector<Template> t = [] {
        std::vector<Template> v = {
            {"comb", "c17.bench", 4096, ""},  {"comb", "add4.v", 4096, ""},
            {"comb", "c432.bench", 4096, ""}, {"comb", "c499.bench", 4096, ""},
            {"comb", "c880.bench", 1024, ""}, {"comb", "c1908.bench", 256, ""},
            {"seq", "s27.bench", 256, ""},    {"seq", "lfsr8.v", 256, ""},
            {"seq", "s298.bench", 16, ""},    {"seq", "s344.bench", 8, ""},
            {"seq", "s386.bench", 8, ""},     {"seq", "s1488-class.bench", 2, ""},
            {"seq", "s5378-class.bench", 1, ""},
        };
        for (const system::Workload &w : system::standardWorkloads())
            v.push_back({"system", "", 0, w.name});
        return v;
    }();
    return t;
}

/** A concrete job: template + seed (or ALU op, for system jobs). */
struct Job
{
    const Template *t = nullptr;
    std::uint64_t seed = 0;
    std::string aluOp;       ///< system jobs
    std::string key;         ///< (kind, circuit, config) identity
    std::uint64_t round = 0; ///< schedule round it was issued in
};

/** A fresh job of template @p t: seeded from @p h, or for system jobs
 *  run with ALU op number @p op. */
Job
makeJob(const Template &t, std::uint64_t h, int op)
{
    Job j;
    j.t = &t;
    if (t.kind == "system") {
        j.aluOp = system::aluOpName(static_cast<system::AluOp>(op));
        j.key = "system/" + t.workload + "/" + j.aluOp;
    } else {
        j.seed = (h >> 1) | 1;
        j.key = t.kind + "/" + t.file + "/" + std::to_string(t.budget) + "/" +
                std::to_string(j.seed);
    }
    return j;
}

jsonl::Value
submitRequest(const Job &j, const std::string &client,
              const std::map<std::string, std::string> &texts)
{
    jsonl::Object cfg;
    if (j.t->kind == "comb") {
        cfg.emplace_back("max_patterns", jsonl::Value(j.t->budget));
        cfg.emplace_back("seed", jsonl::Value(j.seed));
    } else if (j.t->kind == "seq") {
        cfg.emplace_back("symbols", jsonl::Value(j.t->budget));
        cfg.emplace_back("seed", jsonl::Value(j.seed));
    } else {
        cfg.emplace_back("workload", jsonl::Value(j.t->workload));
        cfg.emplace_back("alu_op", jsonl::Value(j.aluOp));
    }
    jsonl::Object req;
    req.emplace_back("op", jsonl::Value("submit"));
    req.emplace_back("client", jsonl::Value(client));
    req.emplace_back("kind", jsonl::Value(j.t->kind));
    if (j.t->kind != "system") {
        req.emplace_back("circuit", jsonl::Value(texts.at(j.t->file)));
        req.emplace_back("harden", jsonl::Value(true));
    }
    req.emplace_back("config", jsonl::Value(std::move(cfg)));
    return jsonl::Value(std::move(req));
}

/** Host time of the reference pass's system campaigns and verdict
 *  encodings, for the traced run's system.campaign_s and
 *  fault.verdict_json_s (per call). */
struct RefTimes
{
    double systemSeconds = 0, jsonSeconds = 0;
    std::size_t systemCalls = 0, jsonCalls = 0;
};

/** In-process reference verdict of a job (another jobs/SIMD/lanes). */
std::string
referenceVerdict(const Job &j, const std::map<std::string, std::string> &texts,
                 RefTimes *rt)
{
    if (j.t->kind == "system") {
        const auto wls = system::standardWorkloads();
        const auto wl = std::find_if(wls.begin(), wls.end(), [&](const auto &w) {
            return w.name == j.t->workload;
        });
        system::AluOp op = system::AluOp::Add;
        for (int i = 0; i < system::kNumAluOps; ++i)
            if (j.aluOp == system::aluOpName(static_cast<system::AluOp>(i)))
                op = static_cast<system::AluOp>(i);
        system::SystemCampaignOptions o;
        o.jobs = nproc();
        const auto t0 = Clock::now();
        const auto r = system::runScalCampaign(*wl, op, o);
        rt->systemSeconds += secondsSince(t0);
        ++rt->systemCalls;
        return system::systemResultJson(r);
    }
    const auto h = ingest::hardenNetlist(
        ingest::importCircuitFromString(texts.at(j.t->file)).net);
    std::string v;
    if (j.t->kind == "comb") {
        fault::CampaignOptions o;
        o.maxPatterns = static_cast<std::uint64_t>(j.t->budget);
        o.seed = j.seed;
        o.jobs = nproc();
        o.lanes = 64;
        o.simd = sim::SimdTarget::Portable;
        const auto r = fault::runAlternatingCampaign(h.net, o);
        const auto t0 = Clock::now();
        v = fault::campaignVerdictJson(h.net, r);
        rt->jsonSeconds += secondsSince(t0);
    } else {
        fault::SeqCampaignOptions o;
        o.symbols = j.t->budget;
        o.seed = j.seed;
        o.jobs = nproc();
        o.simd = sim::SimdTarget::Portable;
        const auto r = fault::runSequentialCampaign(h.net, h.campaignSpec(), o);
        const auto t0 = Clock::now();
        v = fault::seqCampaignVerdictJson(h.net, r);
        rt->jsonSeconds += secondsSince(t0);
    }
    ++rt->jsonCalls;
    return v;
}

/** One completed request as the client saw it. */
struct Done
{
    const Job *job = nullptr;
    double latency = 0;
    bool ok = false;
    bool hit = false;
    std::uint64_t digest = 0; ///< of the verdict
    double elapsed = -1;      ///< the tail's elapsed_seconds
    double evals = 0;         ///< fault evaluations of a comb/seq verdict
    /** Kept for the traced run's hit-path probes only, so that the
     *  timed run's memory does not grow with the replies it got. */
    std::string verdict, tail, reply;
};

/** One closed-loop phase: its wall time, and the throughput summed
 *  over clients, each client's jobs over its own time to its last
 *  reply (the last round of one client may run on alone). */
struct LoopTime
{
    double wall = 0;
    double jobsPerS = 0;
};

Report
runService(const Args &args)
{
    Report rep;
    const auto &tmpl = serviceTemplates();
    std::map<std::string, std::string> texts;
    for (const Template &t : tmpl)
        if (!t.file.empty())
            texts[t.file] = circuitText(args, t.file);

    const std::string sock = args.scratch + "/perfbench-" +
                             std::to_string(::getpid()) + ".sock";
    server::Server::Options so;
    so.socketPath = sock;
    so.scheduler.maxInflight = std::max(1, nproc() - kServiceClients);
    so.scheduler.jobsPerCampaign = 1;
    so.scheduler.cache.maxEntries = kServiceCacheEntries;

    // Set-up: the daemon up and both clients connected, with every
    // circuit of the mix imported and hardened once client-side (so
    // no request can fail on its input).
    std::vector<double> setup;
    std::unique_ptr<server::Server> srv;
    std::vector<std::unique_ptr<server::Client>> clients;
    for (int i = 0; i < kServiceSetupReps; ++i) {
        clients.clear();
        if (srv)
            srv->stop();
        srv.reset();
        const auto t0 = Clock::now();
        for (const auto &[file, text] : texts)
            ingest::hardenNetlist(ingest::importCircuitFromString(text).net);
        srv = std::make_unique<server::Server>(so);
        srv->start();
        for (int c = 0; c < kServiceClients; ++c)
            clients.push_back(std::make_unique<server::Client>(sock));
        setup.push_back(secondsSince(t0));
    }

    // Per client: rounds of every template in a seeded order, each a
    // fresh job (a miss), and after every kFreshPerRepeat fresh jobs a
    // repeat of one of this client's last four (a hit unless evicted).
    // The repeat share and the cache size are assumptions, not measured
    // traffic.
    // System jobs have no seed: a fresh one gets an ALU op from a seeded
    // permutation per workload, distinct for the first kNumAluOps /
    // kServiceClients rounds of every client, so it misses like the
    // other fresh jobs.
    std::vector<std::vector<int>> opPerm(tmpl.size());
    for (std::size_t ti = 0; ti < tmpl.size(); ++ti) {
        for (int op = 0; op < system::kNumAluOps; ++op)
            opPerm[ti].push_back(op);
        for (std::size_t i = opPerm[ti].size(); i > 1; --i)
            std::swap(opPerm[ti][i - 1],
                      opPerm[ti][mix(args.seed * 31 + ti * 977 + i) % i]);
    }

    const auto schedule = [&](int c, std::size_t n) {
        std::vector<std::unique_ptr<Job>> out;
        std::vector<const Job *> recent;
        for (std::uint64_t round = 0; out.size() < n; ++round) {
            std::vector<std::size_t> order(tmpl.size());
            for (std::size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            for (std::size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1],
                          order[mix(args.seed ^ (round << 20) ^ (c << 12) ^ i) % i]);
            int fresh = 0;
            for (const std::size_t ti : order) {
                const int op = opPerm[ti][(kServiceClients * round +
                                           static_cast<std::uint64_t>(c)) %
                                          system::kNumAluOps];
                out.push_back(std::make_unique<Job>(makeJob(
                    tmpl[ti], mix(args.seed * 7919 + c * 104729 + round * 131 + ti),
                    op)));
                out.back()->round = round;
                recent.push_back(out.back().get());
                if (++fresh % kFreshPerRepeat == 0) {
                    const std::size_t back = std::min<std::size_t>(recent.size(), 4);
                    const Job *again = recent[recent.size() - 1 -
                                              mix(args.seed + out.size()) % back];
                    out.push_back(std::make_unique<Job>(*again));
                    out.back()->round = round;
                }
            }
        }
        return out;
    };

    const auto closedLoop = [&](double seconds, std::vector<Done> *done,
                                std::vector<std::vector<std::unique_ptr<Job>>> *jobs) {
        jobs->clear();
        for (int c = 0; c < kServiceClients; ++c)
            jobs->push_back(schedule(c, 4096));
        std::vector<std::vector<Done>> per(kServiceClients);
        std::vector<std::string> errors(kServiceClients);
        std::vector<double> busy(kServiceClients, 0);
        const perfbench::SpanContext ctx = Tracer::instance().current();
        const auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (int c = 0; c < kServiceClients; ++c)
            threads.emplace_back([&, c] {
                try {
                    const std::string name = "client" + std::to_string(c);
                    std::uint64_t roundOpen = 0;
                    // Whole rounds only, so every run sees the same mix.
                    for (const auto &job : (*jobs)[static_cast<std::size_t>(c)]) {
                        if (job->round != roundOpen && secondsSince(t0) >= seconds)
                            break;
                        roundOpen = job->round;
                        const jsonl::Value req = submitRequest(*job, name, texts);
                        Done d;
                        d.job = job.get();
                        const auto s0 = Clock::now();
                        jsonl::Value res;
                        {
                            ScopedSpan span("client.job", ctx);
                            res = clients[static_cast<std::size_t>(c)]->submitAndWait(req);
                        }
                        d.latency = secondsSince(s0);
                        const jsonl::Value *st = res.find("state");
                        const jsonl::Value *v = res.find("verdict");
                        const jsonl::Value *tl = res.find("tail");
                        const jsonl::Value *hit = res.find("cache_hit");
                        d.ok = st && st->asString() == "done" && v;
                        d.hit = hit && hit->asBool();
                        const std::string verdict = v ? v->asString() : "";
                        const std::string tail = tl ? tl->asString() : "";
                        d.digest = perfbench::verdictDigest(verdict);
                        d.elapsed = jsonNumber(tail, "elapsed_seconds");
                        const double faults = jsonNumber(verdict, "faults");
                        if (job->t->kind == "comb")
                            d.evals = faults * jsonNumber(verdict, "patterns_applied");
                        else if (job->t->kind == "seq")
                            d.evals = faults * 2.0 * static_cast<double>(job->t->budget) *
                                      jsonNumber(verdict, "lanes");
                        if (args.trace) {
                            d.verdict = verdict;
                            d.tail = tail;
                            d.reply = res.dump();
                        }
                        per[static_cast<std::size_t>(c)].push_back(std::move(d));
                        busy[static_cast<std::size_t>(c)] = secondsSince(t0);
                    }
                } catch (const std::exception &e) {
                    errors[static_cast<std::size_t>(c)] = e.what();
                }
            });
        for (auto &t : threads)
            t.join();
        LoopTime lt;
        lt.wall = secondsSince(t0);
        for (const std::string &e : errors)
            if (!e.empty()) {
                rep.check(false, "client: " + e);
            }
        done->clear();
        for (std::size_t c = 0; c < per.size(); ++c) {
            if (busy[c] > 0)
                lt.jobsPerS += static_cast<double>(per[c].size()) / busy[c];
            for (Done &d : per[c])
                done->push_back(std::move(d));
        }
        return lt;
    };

    std::vector<Done> done;
    std::vector<std::vector<std::unique_ptr<Job>>> jobs;
    std::vector<Done> untracedDone;
    std::vector<std::vector<std::unique_ptr<Job>>> untracedJobs;
    LoopTime loop;
    if (args.trace) {
        // Untraced half first, for the overhead line; then a fresh
        // daemon (empty cache) for the traced half.
        closedLoop(args.seconds / 2, &untracedDone, &untracedJobs);
        clients.clear();
        srv->stop();
        srv = std::make_unique<server::Server>(so);
        srv->start();
        for (int c = 0; c < kServiceClients; ++c)
            clients.push_back(std::make_unique<server::Client>(sock));
        Tracer::instance().setEnabled(true);
        loop = closedLoop(args.seconds / 2, &done, &jobs);
    } else {
        loop = closedLoop(args.seconds, &done, &jobs);
    }
    // Before the reference pass, which is not part of the workload.
    const double peakAfterLoop = peakRssMiB();
    const server::CacheStats cache = srv->scheduler().cacheStats();
    const server::SchedulerStats sched = srv->scheduler().stats();
    clients.clear();
    srv->stop();
    srv.reset();

    // Layer probes of the hit path on the requests that hit: the calls
    // the daemon makes before answering from its cache. They run before
    // the reference pass, and only their spans make up the self times.
    std::map<std::string, double> m;
    if (args.trace) {
        server::VerdictCache probe(so.scheduler.cache);
        for (const Done &d : done)
            if (d.ok && !d.hit)
                probe.insert("k" + d.job->key, {d.job->t->kind, d.verdict, d.tail});
        std::size_t probes = 0;
        {
            Tracer::instance().beginOp();
            ScopedSpan op("probe");
            for (const Done &d : done) {
                if (!d.hit || d.job->t->kind == "system")
                    continue;
                ++probes;
                ingest::ImportedCircuit c;
                {
                    ScopedSpan s("ingest.parse");
                    c = ingest::importCircuitFromString(texts.at(d.job->t->file));
                }
                ingest::HardenedCircuit h;
                {
                    ScopedSpan s("ingest.harden");
                    h = ingest::hardenNetlist(c.net);
                }
                {
                    ScopedSpan s("netlist.content_hash");
                    netlist::contentHash(h.net);
                }
                server::CachedVerdict cv;
                {
                    ScopedSpan s("server.cache_lookup");
                    probe.lookup("k" + d.job->key, &cv);
                }
                ScopedSpan s("server.jsonl_parse");
                jsonl::parse(d.reply);
            }
        }
        Tracer::instance().setEnabled(false);
        // Per probed hit. The closed loop's client.job spans belong to
        // no layer, so the self times come from the probe spans only.
        const double perProbe = probes ? static_cast<double>(probes) : 1.0;
        addSpanMetrics(m, perProbe);
        const Tracer &t = Tracer::instance();
        m["server.cache_lookup_us"] =
            1e6 * t.totalSeconds("server.cache_lookup") / perProbe;
        m["server.jsonl_parse_us"] =
            1e6 * t.totalSeconds("server.jsonl_parse") / perProbe;
        m["other_s"] = 0; // no campaign span: the campaigns run in the daemon
    }

    // Check every verdict against an in-process reference, computed
    // once per distinct job after the timed loop, untraced.
    References refs;
    refs.corrupt = args.corruptReference;
    std::map<std::string, const Job *> distinct;
    for (const auto *set : {&done, &untracedDone})
        for (const Done &d : *set)
            distinct.emplace(d.job->key, d.job);
    RefTimes rt;
    for (const auto &[key, job] : distinct)
        refs.put(key, perfbench::verdictDigest(referenceVerdict(*job, texts, &rt)));

    std::vector<Sample> samples;
    std::vector<double> hitLat, queueWait;
    for (const auto *set : {&untracedDone, &done})
        for (const Done &d : *set)
            rep.check(d.ok && refs.matches(d.job->key, d.digest),
                      d.job->key + " verdict digest");
    for (const Done &d : done) {
        Sample s;
        s.latency = d.latency;
        if (d.hit) {
            hitLat.push_back(d.latency);
        } else if (d.elapsed > 0 && d.evals > 0) {
            s.campaign = d.elapsed;
            s.evals = d.evals;
            queueWait.push_back(d.latency - d.elapsed);
        }
        samples.push_back(s);
    }
    rep.check(sched.rejected == 0, "no backpressure rejections");
    std::map<std::string, std::vector<double>> byKind;
    for (const Done &d : done)
        byKind[d.hit ? std::string("hit")
                     : d.job->t->kind + ":" + d.job->t->file + d.job->t->workload]
            .push_back(1e3 * d.latency);
    for (const auto &[k, v] : byKind)
        rep.notes.push_back("latency_ms " + k + " n=" + std::to_string(v.size()) +
                            " p50=" + formatNumber(median(v)));
    rep.notes.push_back("hits=" + std::to_string(hitLat.size()) +
                        " cache_hits=" + std::to_string(cache.hits) +
                        " evictions=" + std::to_string(cache.evictions));

    if (!args.trace) {
        addEndToEnd(rep, setup, samples, loop.wall, peakAfterLoop, true,
                    loop.jobsPerS);
        return rep;
    }

    std::vector<double> lat, untracedLat;
    for (const Done &d : done)
        lat.push_back(d.latency);
    for (const Done &d : untracedDone)
        untracedLat.push_back(d.latency);
    m["system.campaign_s"] =
        rt.systemCalls ? rt.systemSeconds / static_cast<double>(rt.systemCalls) : 0;
    m["fault.verdict_json_s"] =
        rt.jsonCalls ? rt.jsonSeconds / static_cast<double>(rt.jsonCalls) : 0;
    m["server.queue_wait_ms"] = 1e3 * median(queueWait);
    m["server.hit_latency_p50_ms"] = 1e3 * median(hitLat);
    m["server.cache_hit_ratio"] =
        cache.hits + cache.misses
            ? static_cast<double>(cache.hits) /
                  static_cast<double>(cache.hits + cache.misses)
            : 0;
    m["server.cache_insertions"] = static_cast<double>(cache.insertions);
    m["server.cache_evictions"] = static_cast<double>(cache.evictions);
    m["server.rejected"] = static_cast<double>(sched.rejected);
    m["trace.campaign_s"] = median(lat);
    m["trace.overhead_s"] = median(lat) - median(untracedLat);
    return finishTraced(std::move(m), std::move(rep), args);
}

// ---------------------------------------------------------------------

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error(k + " needs a value");
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = val();
        else if (k == "--seed")
            a.seed = std::stoull(val());
        else if (k == "--seconds")
            a.seconds = std::stod(val());
        else if (k == "--trace")
            a.trace = val() != "0";
        else if (k == "--trace-file")
            a.traceFile = val();
        else if (k == "--root")
            a.root = val();
        else if (k == "--scratch")
            a.scratch = val();
        else if (k == "--corrupt-reference")
            a.corruptReference = true;
        else
            throw std::runtime_error("unknown argument " + k);
    }
    if (a.seconds <= 0)
        throw std::runtime_error("--seconds must be positive");
    return a;
}

void
printResult(const Report &rep)
{
    for (const std::string &n : rep.notes)
        std::cout << "# " << n << "\n";
    std::cout << "# counts:";
    for (const auto &[k, v] : rep.counts)
        std::cout << " " << k << "=" << formatNumber(v);
    std::cout << " digest=" << formatNumber(rep.countsDigest()) << "\n";
    for (const Metric &m : rep.metrics)
        std::cout << "# " << m.name << " = " << formatNumber(m.value) << " "
                  << m.unit << "\n";
    std::ostringstream js;
    js << "{\"correct\": " << (rep.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        js << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << formatNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        const std::map<std::string, std::function<Report(const Args &)>> workloads = {
            {"comb_c1908", runComb},
            {"seq_sclass", runSeq},
            {"shard_resume", runShard},
            {"service_mix", runService},
        };
        const auto it = workloads.find(args.workload);
        if (it == workloads.end())
            throw std::runtime_error("unknown workload '" + args.workload + "'");
        printResult(it->second(args));
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "scal_perfbench: " << e.what() << "\n";
        return 1;
    }
}
