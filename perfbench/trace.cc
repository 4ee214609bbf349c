#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench
{

namespace
{

/** The innermost open span and current operation of this thread. */
thread_local SpanContext tlContext;
thread_local void *tlBuffer = nullptr;

std::string
layerOf(const char *name)
{
    const std::string n(name);
    const auto dot = n.find('.');
    return dot == std::string::npos ? n : n.substr(0, dot);
}

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer t;
    return t;
}

SpanContext
Tracer::current() const
{
    return tlContext;
}

std::uint32_t
Tracer::beginOp()
{
    std::lock_guard<std::mutex> lk(mu_);
    tlContext.op = nextOp_++;
    return tlContext.op;
}

Tracer::Buffer &
Tracer::localBuffer()
{
    if (!tlBuffer) {
        auto buf = std::make_unique<Buffer>();
        buf->spans.reserve(4096);
        std::lock_guard<std::mutex> lk(mu_);
        buf->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
        tlBuffer = buf.get();
        buffers_.push_back(std::move(buf));
    }
    return *static_cast<Buffer *>(tlBuffer);
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Span> all;
    for (const auto &b : buffers_)
        all.insert(all.end(), b->spans.begin(), b->spans.end());
    return all;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    const std::vector<Span> all = spans();
    std::unordered_map<std::uint32_t, std::vector<std::pair<std::int64_t,
                                                            std::int64_t>>>
        children;
    for (const Span &s : all)
        if (s.parent)
            children[s.parent].emplace_back(s.beginNs, s.endNs);

    std::map<std::string, double> self;
    for (const Span &s : all) {
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            // Union of the child intervals, clipped to this span:
            // parallel children on worker threads overlap.
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t runB = 0, runE = -1;
            for (auto [b, e] : iv) {
                b = std::max(b, s.beginNs);
                e = std::min(e, s.endNs);
                if (e <= b)
                    continue;
                if (b > runE) {
                    if (runE > runB)
                        covered += runE - runB;
                    runB = b;
                    runE = e;
                } else {
                    runE = std::max(runE, e);
                }
            }
            if (runE > runB)
                covered += runE - runB;
        }
        self[layerOf(s.name)] +=
            static_cast<double>(s.endNs - s.beginNs - covered) * 1e-9;
    }
    return self;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    double t = 0;
    for (const Span &s : spans())
        if (name == s.name)
            t += static_cast<double>(s.endNs - s.beginNs) * 1e-9;
    return t;
}

std::size_t
Tracer::count(const std::string &name) const
{
    std::size_t n = 0;
    for (const Span &s : spans())
        n += name == s.name;
    return n;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    char buf[512];
    for (const Span &s : spans()) {
        std::snprintf(
            buf, sizeof buf,
            "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
            "\"args\": {\"id\": %u, \"parent\": %u, \"op\": %u}}",
            first ? "" : ",\n", s.name, layerOf(s.name).c_str(),
            static_cast<double>(s.beginNs) * 1e-3,
            static_cast<double>(s.endNs - s.beginNs) * 1e-3, s.tid, s.id,
            s.parent, s.op);
        out << buf;
        first = false;
    }
    out << "\n]}\n";
    out.flush();
    return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char *name)
{
    open(name, tlContext);
}

ScopedSpan::ScopedSpan(const char *name, const SpanContext &ctx)
{
    open(name, ctx);
}

void
ScopedSpan::open(const char *name, const SpanContext &ctx)
{
    Tracer &t = Tracer::instance();
    if (!t.enabled())
        return;
    active_ = true;
    saved_ = tlContext;
    span_.name = name;
    span_.parent = ctx.parent;
    span_.op = ctx.op;
    {
        std::lock_guard<std::mutex> lk(t.mu_);
        span_.id = t.nextSpan_++;
    }
    tlContext = SpanContext{span_.id, ctx.op};
    span_.beginNs = t.nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    Tracer &t = Tracer::instance();
    span_.endNs = t.nowNs();
    Tracer::Buffer &buf = t.localBuffer();
    span_.tid = buf.tid;
    buf.spans.push_back(span_);
    tlContext = saved_;
}

} // namespace perfbench
