#include "server/protocol.hh"

#include <stdexcept>

#include "fault/report.hh"
#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/io.hh"
#include "sim/simd.hh"

namespace scal::server
{

namespace
{

std::string
optString(const jsonl::Value &req, const char *key,
          const std::string &dflt = {})
{
    const jsonl::Value *v = req.find(key);
    if (!v || v->isNull())
        return dflt;
    if (!v->isString())
        throw std::runtime_error(std::string(key) + " must be a string");
    return v->asString();
}

std::uint64_t
optUint(const jsonl::Value &req, const char *key, std::uint64_t dflt)
{
    const jsonl::Value *v = req.find(key);
    if (!v || v->isNull())
        return dflt;
    try {
        return v->asUint64();
    } catch (const std::exception &) {
        throw std::runtime_error(std::string(key) +
                                 " must be a non-negative integer");
    }
}

std::int64_t
optInt(const jsonl::Value &req, const char *key, std::int64_t dflt)
{
    const jsonl::Value *v = req.find(key);
    if (!v || v->isNull())
        return dflt;
    try {
        return v->asInt64();
    } catch (const std::exception &) {
        throw std::runtime_error(std::string(key) +
                                 " must be an integer");
    }
}

bool
optBool(const jsonl::Value &req, const char *key, bool dflt)
{
    const jsonl::Value *v = req.find(key);
    if (!v || v->isNull())
        return dflt;
    try {
        return v->asBool();
    } catch (const std::exception &) {
        throw std::runtime_error(std::string(key) + " must be a bool");
    }
}

std::vector<int>
optIndexList(const jsonl::Value &req, const char *key)
{
    const jsonl::Value *v = req.find(key);
    if (!v || v->isNull())
        return {};
    try {
        std::vector<int> out;
        for (const jsonl::Value &e : v->asArray())
            out.push_back(static_cast<int>(e.asInt64()));
        return out;
    } catch (const std::exception &) {
        throw std::runtime_error(std::string(key) +
                                 " must be an array of indices");
    }
}

sim::SimdTarget
parseSimd(const std::string &name)
{
    sim::SimdTarget t = sim::SimdTarget::Auto;
    if (!sim::parseSimdTarget(name.c_str(), &t))
        throw std::runtime_error(
            "simd must be auto|portable|avx2|avx512, got '" + name +
            "'");
    return t;
}

netlist::Netlist
loadCircuit(const jsonl::Value &req)
{
    ingest::Format format = ingest::Format::Auto;
    const std::string fmt = optString(req, "format");
    if (!fmt.empty() && !ingest::parseFormatName(fmt, &format))
        throw std::runtime_error(
            "format must be auto|bench|blif|scal, got '" + fmt + "'");

    const std::string inlineText = optString(req, "circuit");
    const std::string path = optString(req, "circuit_path");
    if (inlineText.empty() == path.empty())
        throw std::runtime_error(
            "submit needs exactly one of circuit (inline text) or "
            "circuit_path");
    ingest::ImportedCircuit circ =
        inlineText.empty()
            ? ingest::importCircuit(path, format)
            : ingest::importCircuitFromString(inlineText, format);
    if (!optBool(req, "harden", false))
        return std::move(circ.net);
    return ingest::hardenNetlist(circ.net).net;
}

const jsonl::Value &
configOf(const jsonl::Value &req)
{
    static const jsonl::Value empty{jsonl::Object{}};
    const jsonl::Value *cfg = req.find("config");
    if (!cfg || cfg->isNull())
        return empty;
    if (!cfg->isObject())
        throw std::runtime_error("config must be an object");
    return *cfg;
}

void
buildCombJob(const jsonl::Value &cfg, JobConfig *job)
{
    fault::CampaignOptions &o = job->copts;
    o.maxPatterns = optUint(cfg, "max_patterns", o.maxPatterns);
    o.seed = optUint(cfg, "seed", o.seed);
    o.keepUnsafeExamples = static_cast<int>(
        optInt(cfg, "keep_unsafe", o.keepUnsafeExamples));
    o.checkAlternating =
        optBool(cfg, "check_alternating", o.checkAlternating);
    o.lanes = static_cast<int>(optInt(cfg, "lanes", o.lanes));
    o.simd = parseSimd(optString(cfg, "simd", "auto"));
    // Worker-process count: routes through the shard orchestrator
    // when the daemon has one. Verdict-neutral, so not in configKey.
    job->shards = static_cast<int>(optInt(cfg, "shards", 0));
    job->configKey = fault::canonicalCampaignConfig(o);
}

void
buildSeqJob(const jsonl::Value &cfg, JobConfig *job)
{
    fault::SeqCampaignOptions &o = job->sopts;
    fault::SeqCampaignSpec &spec = job->spec;
    o.symbols = optInt(cfg, "symbols", o.symbols);
    o.seed = optUint(cfg, "seed", o.seed);
    o.lanes = static_cast<int>(optInt(cfg, "lanes", o.lanes));
    o.simd = parseSimd(optString(cfg, "simd", "auto"));
    o.dropDetected = optBool(cfg, "drop", o.dropDetected);
    const std::string window = optString(cfg, "window");
    if (!window.empty()) {
        const auto colon = window.find(':');
        if (colon == std::string::npos)
            throw std::runtime_error(
                "window must be \"START:END\" in periods");
        try {
            o.faultStart = std::stol(window.substr(0, colon));
            o.faultEnd = std::stol(window.substr(colon + 1));
        } catch (const std::exception &) {
            throw std::runtime_error(
                "window must be \"START:END\" in periods");
        }
    }
    spec.holdInputs = optIndexList(cfg, "hold");
    spec.dataOutputs = optIndexList(cfg, "data");
    spec.altOutputs = optIndexList(cfg, "alt");
    spec.codePairs = optIndexList(cfg, "code_pairs");
    const std::string phiName = optString(cfg, "phi", "phi");
    spec.phiInput = -1;
    for (int i = 0; i < job->net.numInputs(); ++i)
        if (job->net.gate(job->net.inputs()[i]).name == phiName)
            spec.phiInput = i;
    job->shards = static_cast<int>(optInt(cfg, "shards", 0));
    job->configKey = fault::canonicalSeqCampaignConfig(o, spec);
}

void
buildSystemJob(const jsonl::Value &cfg, JobConfig *job)
{
    const std::string wlName = optString(cfg, "workload", "sum");
    bool found = false;
    for (scal::system::Workload &wl : scal::system::standardWorkloads())
        if (wl.name == wlName) {
            job->workload = std::move(wl);
            found = true;
            break;
        }
    if (!found)
        throw std::runtime_error("unknown workload '" + wlName + "'");

    const std::string opName = optString(cfg, "alu_op", "add");
    found = false;
    for (int i = 0; i < scal::system::kNumAluOps; ++i) {
        const auto op = static_cast<scal::system::AluOp>(i);
        if (opName == scal::system::aluOpName(op)) {
            job->aluOp = op;
            found = true;
            break;
        }
    }
    if (!found)
        throw std::runtime_error("unknown alu_op '" + opName + "'");

    job->checkedCpu = optBool(cfg, "checked", true);
    job->netHash = netlist::fnv1a64(wlName);
    job->configKey = scal::system::canonicalSystemConfig(
        wlName, job->aluOp, job->checkedCpu);
}

} // namespace

JobConfig
buildJobConfig(const jsonl::Value &req)
{
    if (!req.isObject())
        throw std::runtime_error("request must be a JSON object");
    JobConfig job;
    job.client = optString(req, "client", "anonymous");
    job.priority =
        static_cast<int>(optInt(req, "priority", 0));
    job.kind = optString(req, "kind");
    const jsonl::Value &cfg = configOf(req);
    if (job.kind == "comb" || job.kind == "seq") {
        job.net = loadCircuit(req);
        job.netHash = netlist::contentHash(job.net);
        if (job.kind == "comb")
            buildCombJob(cfg, &job);
        else
            buildSeqJob(cfg, &job);
    } else if (job.kind == "system") {
        buildSystemJob(cfg, &job);
    } else {
        throw std::runtime_error(
            "kind must be comb|seq|system, got '" + job.kind + "'");
    }
    // Rough fair-share weight: bigger circuits charge more, so a
    // client flooding c432 campaigns drains its share faster than one
    // submitting toy nets.
    job.costEstimate =
        1 + static_cast<std::uint64_t>(job.net.numGates()) / 64;
    return job;
}

jsonl::Value
errorResponse(const std::string &msg, std::uint64_t line)
{
    jsonl::Object o;
    o.emplace_back("ok", jsonl::Value(false));
    o.emplace_back("error", jsonl::Value(msg));
    o.emplace_back("line", jsonl::Value(line));
    return jsonl::Value(std::move(o));
}

jsonl::Value
submitResponse(const SubmitOutcome &out)
{
    jsonl::Object o;
    o.emplace_back("ok", jsonl::Value(out.accepted));
    if (out.accepted) {
        o.emplace_back("id", jsonl::Value(out.id));
        o.emplace_back("cache_hit", jsonl::Value(out.cacheHit));
        o.emplace_back("state", jsonl::Value(out.cacheHit ? "done"
                                                          : "queued"));
    } else {
        o.emplace_back("rejected", jsonl::Value(out.reason));
    }
    return jsonl::Value(std::move(o));
}

jsonl::Value
jobResponse(const JobInfo &info, bool includePayload)
{
    jsonl::Object o;
    o.emplace_back("ok", jsonl::Value(true));
    o.emplace_back("id", jsonl::Value(info.id));
    o.emplace_back("client", jsonl::Value(info.client));
    o.emplace_back("kind", jsonl::Value(info.kind));
    o.emplace_back("priority", jsonl::Value(info.priority));
    o.emplace_back("state", jsonl::Value(jobStateName(info.state)));
    o.emplace_back("cache_hit", jsonl::Value(info.cacheHit));
    if (includePayload) {
        if (!info.verdict.empty())
            o.emplace_back("verdict", jsonl::Value(info.verdict));
        if (!info.tail.empty())
            o.emplace_back("tail", jsonl::Value(info.tail));
        if (!info.error.empty())
            o.emplace_back("error", jsonl::Value(info.error));
    }
    return jsonl::Value(std::move(o));
}

jsonl::Value
listResponse(const std::vector<JobInfo> &jobs)
{
    jsonl::Array arr;
    for (const JobInfo &info : jobs) {
        jsonl::Object j;
        j.emplace_back("id", jsonl::Value(info.id));
        j.emplace_back("client", jsonl::Value(info.client));
        j.emplace_back("kind", jsonl::Value(info.kind));
        j.emplace_back("priority", jsonl::Value(info.priority));
        j.emplace_back("state", jsonl::Value(jobStateName(info.state)));
        j.emplace_back("cache_hit", jsonl::Value(info.cacheHit));
        arr.emplace_back(std::move(j));
    }
    jsonl::Object o;
    o.emplace_back("ok", jsonl::Value(true));
    o.emplace_back("jobs", jsonl::Value(std::move(arr)));
    return jsonl::Value(std::move(o));
}

jsonl::Value
statsResponse(const SchedulerStats &sched, const CacheStats &cache)
{
    jsonl::Object s;
    s.emplace_back("submitted", jsonl::Value(sched.submitted));
    s.emplace_back("completed", jsonl::Value(sched.completed));
    s.emplace_back("failed", jsonl::Value(sched.failed));
    s.emplace_back("cancelled", jsonl::Value(sched.cancelled));
    s.emplace_back("rejected", jsonl::Value(sched.rejected));
    s.emplace_back("queued", jsonl::Value(sched.queued));
    s.emplace_back("running", jsonl::Value(sched.running));
    s.emplace_back("retained_gates", jsonl::Value(sched.retainedGates));

    jsonl::Object c;
    c.emplace_back("hits", jsonl::Value(cache.hits));
    c.emplace_back("disk_hits", jsonl::Value(cache.diskHits));
    c.emplace_back("misses", jsonl::Value(cache.misses));
    c.emplace_back("insertions", jsonl::Value(cache.insertions));
    c.emplace_back("evictions", jsonl::Value(cache.evictions));
    c.emplace_back("entries", jsonl::Value(cache.entries));
    c.emplace_back("resident_bytes", jsonl::Value(cache.residentBytes));

    jsonl::Object o;
    o.emplace_back("ok", jsonl::Value(true));
    o.emplace_back("scheduler", jsonl::Value(std::move(s)));
    o.emplace_back("cache", jsonl::Value(std::move(c)));
    return jsonl::Value(std::move(o));
}

} // namespace scal::server
