/**
 * @file
 * Shared timing-stability helpers for the kernel benchmarks: every
 * timed section runs a warmup pass (cold caches and lazy allocations
 * do not pollute the samples) and then a fixed number of repetitions,
 * reported as best / median / standard deviation so CI artifacts can
 * distinguish a real regression from scheduler noise. Sections whose
 * ratio is gated run interleaved (Interleaved), and the ratio is the
 * median of per-round ratios.
 */

#ifndef SCAL_BENCH_BENCH_STATS_HH
#define SCAL_BENCH_BENCH_STATS_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <ostream>
#include <vector>

namespace scal::bench
{

struct TimingStats
{
    double best = 0;    ///< minimum wall-clock seconds over the reps
    double median = 0;  ///< median seconds
    double stddev = 0;  ///< population standard deviation in seconds
    int reps = 0;
    int warmup = 0;
};

/** Best / median / stddev of @p samples (seconds, non-empty). */
inline TimingStats
summarize(std::vector<double> samples, int warmup)
{
    TimingStats s;
    s.reps = static_cast<int>(samples.size());
    s.warmup = warmup;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    s.best = samples.front();
    s.median = n % 2 ? samples[n / 2]
                     : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
    double mean = 0;
    for (double v : samples)
        mean += v;
    mean /= static_cast<double>(n);
    double var = 0;
    for (double v : samples)
        var += (v - mean) * (v - mean);
    s.stddev = std::sqrt(var / static_cast<double>(n));
    return s;
}

/** Wall-clock seconds of one call of @p fn. */
template <typename Fn>
double
timeOnce(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Time @p fn: @p warmup untimed passes, then @p reps timed ones. */
template <typename Fn>
TimingStats
timeStats(Fn &&fn, int reps = 5, int warmup = 1)
{
    for (int r = 0; r < warmup; ++r)
        fn();
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r)
        samples.push_back(timeOnce(fn));
    return summarize(std::move(samples), warmup);
}

/** A ratio of two interleaved sections: the median over rounds of
 *  a/b, and the interquartile range of those per-round ratios. */
struct PairedRatio
{
    double median = 0;
    double iqr = 0;
};

/**
 * Several sections timed interleaved: after @p warmup untimed rounds,
 * each of @p reps rounds runs every section once, in order (ABAB...).
 * A burst of host noise then lands on both sides of a ratio, and the
 * ratio of two sections is taken per round and gated at its median,
 * not as best over best of two separately timed blocks.
 */
class Interleaved
{
  public:
    Interleaved(const std::vector<std::function<void()>> &sections,
                int reps, int warmup = 1)
        : warmup_(warmup), samples_(sections.size())
    {
        for (int r = 0; r < warmup; ++r)
            for (const auto &fn : sections)
                fn();
        for (int r = 0; r < reps; ++r)
            for (std::size_t i = 0; i < sections.size(); ++i)
                samples_[i].push_back(timeOnce(sections[i]));
    }

    TimingStats stats(std::size_t i) const
    {
        return summarize(samples_[i], warmup_);
    }

    /** Section @p a's time over section @p b's, round by round. */
    PairedRatio
    ratio(std::size_t a, std::size_t b) const
    {
        std::vector<double> r;
        for (std::size_t k = 0; k < samples_[a].size(); ++k)
            r.push_back(samples_[a][k] / samples_[b][k]);
        std::sort(r.begin(), r.end());
        const auto quantile = [&r](double q) {
            const double at = q * static_cast<double>(r.size() - 1);
            const auto lo = static_cast<std::size_t>(at);
            const std::size_t hi = std::min(lo + 1, r.size() - 1);
            return r[lo] + (at - static_cast<double>(lo)) * (r[hi] - r[lo]);
        };
        return {quantile(0.5), quantile(0.75) - quantile(0.25)};
    }

  private:
    int warmup_;
    std::vector<std::vector<double>> samples_;
};

/** The stats as inline JSON fields (no surrounding braces), e.g.
 *  `"foo_seconds": B, "foo_median": M, "foo_stddev": S`. */
inline void
emitStatsFields(std::ostream &os, const char *prefix,
                const TimingStats &s)
{
    os << "\"" << prefix << "_seconds\": " << s.best << ", \"" << prefix
       << "_median\": " << s.median << ", \"" << prefix
       << "_stddev\": " << s.stddev;
}

} // namespace scal::bench

#endif // SCAL_BENCH_BENCH_STATS_HH
