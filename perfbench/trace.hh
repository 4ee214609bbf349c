/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one timed call into a layer of the campaign stack: name
 * ("sim.classify"), start, end, the span that caused it and the
 * operation it belongs to. Each thread appends to its own buffer; the
 * buffers are only read after every worker has been joined, when the
 * run ends and the spans are folded into per-layer self times and
 * written out as Chrome trace-event JSON. With tracing disabled a
 * ScopedSpan records nothing, so the timed (untraced) run pays one
 * branch per call site.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

struct Span
{
    const char *name = "";
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root
    std::uint32_t op = 0;     ///< operation the span belongs to
    std::uint32_t tid = 0;    ///< recording thread (dense, from 1)
};

/** Where a span hangs in the tree; captured on one thread and handed
 *  to work that runs on another (an engine worker). */
struct SpanContext
{
    std::uint32_t parent = 0;
    std::uint32_t op = 0;
};

class Tracer
{
  public:
    static Tracer &instance();

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Context of the innermost open span on this thread. */
    SpanContext current() const;
    /** Start a new operation on this thread; returns its id. */
    std::uint32_t beginOp();

    /** All recorded spans; call only after every worker has joined. */
    std::vector<Span> spans() const;

    /** Per-layer self time in seconds: each span's duration minus the
     *  part of it covered by its children, summed by the name prefix
     *  before the first '.'. Root spans without a layer prefix are
     *  reported under their full name. */
    std::map<std::string, double> selfSeconds() const;
    /** Summed duration of every span with exactly this name. */
    double totalSeconds(const std::string &name) const;
    /** Number of spans with exactly this name. */
    std::size_t count(const std::string &name) const;

    /** Write the spans as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    friend class ScopedSpan;

    struct Buffer
    {
        std::uint32_t tid = 0;
        std::vector<Span> spans;
    };

    Buffer &localBuffer();
    std::int64_t nowNs() const;

    bool enabled_ = false;
    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mu_; ///< guards buffers_ and the id counters
    std::vector<std::unique_ptr<Buffer>> buffers_;
    std::uint32_t nextSpan_ = 1;
    std::uint32_t nextOp_ = 1;
};

/** Records one span from construction to destruction (when enabled). */
class ScopedSpan
{
  public:
    /** Child of this thread's innermost open span. */
    explicit ScopedSpan(const char *name);
    /** Child of a span opened on another thread. */
    ScopedSpan(const char *name, const SpanContext &ctx);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    void open(const char *name, const SpanContext &ctx);

    bool active_ = false;
    Span span_;
    SpanContext saved_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
