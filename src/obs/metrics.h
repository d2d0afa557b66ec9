/**
 * @file
 * Interned-handle metrics: counters, gauges, and O(1)-memory
 * log-bucketed latency histograms, with snapshot export to JSON.
 *
 * Device models register each metric once at construction and keep the
 * returned Handle (a plain index). Hot-path updates are then a vector
 * indexing, not a `std::map<std::string, ...>` lookup — the difference
 * matters in the controller pipeline, which bumps several counters per
 * simulated block. Cold paths may still update by name via bump().
 *
 * Metrics are optionally scoped to a function id (per-VF counters);
 * unscoped metrics use kGlobalScope. A LogHistogram replaces unbounded
 * util::Sampler accumulation in long benches: power-of-two buckets,
 * exact count/sum (so mean() is exact, not bucket-approximated), and
 * approximate percentiles — all in O(1) memory.
 */
#ifndef NESC_OBS_METRICS_H
#define NESC_OBS_METRICS_H

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nesc::obs {

/** Scope value for metrics not bound to one function. */
inline constexpr std::uint16_t kGlobalScope = 0xffff;

/**
 * Log-bucketed latency histogram: value v lands in bucket
 * bit_width(v), giving power-of-two bucket boundaries. count and sum
 * are exact, so mean() carries no bucketing error; percentiles are
 * approximated by the geometric midpoint of the resolving bucket.
 */
class LogHistogram {
  public:
    /// bit_width of a uint64 is 0..64.
    static constexpr std::size_t kBuckets = 65;

    void
    observe(std::uint64_t value)
    {
        ++buckets_[std::bit_width(value)];
        ++count_;
        sum_ += value;
        if (count_ == 1 || value < min_)
            min_ = value;
        if (value > max_)
            max_ = value;
    }

    /**
     * Folds @p n samples in one pass. Equivalent to calling observe()
     * per element, but keeps count/sum/min/max in registers across
     * the batch — the form the SLO staging buffer drains in.
     */
    void
    observe_batch(const std::uint64_t *values, std::size_t n)
    {
        observe_strided(values, 1, n);
    }

    /**
     * observe_batch over @p n samples spaced @p stride u64s apart,
     * starting at @p base. Lets an array-of-structs staging buffer
     * drain one field per histogram without gathering into a
     * temporary first.
     */
    void
    observe_strided(const std::uint64_t *base, std::size_t stride,
                    std::size_t n)
    {
        if (n == 0)
            return;
        std::uint64_t sum = 0;
        std::uint64_t mn = base[0];
        std::uint64_t mx = base[0];
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t v = base[i * stride];
            ++buckets_[std::bit_width(v)];
            sum += v;
            mn = v < mn ? v : mn;
            mx = v > mx ? v : mx;
        }
        if (count_ == 0 || mn < min_)
            min_ = mn;
        if (mx > max_)
            max_ = mx;
        count_ += n;
        sum_ += sum;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    /** Exact mean (sum and count are exact). */
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /**
     * Approximate percentile, @p p in [0, 100]. The rank p/100*count
     * is located in the log-bucket histogram and interpolated as the
     * geometric midpoint sqrt(lo*hi) of the resolving bucket's
     * boundaries [2^(b-1), 2^b), clamped to the exact [min, max].
     *
     * Pinned edge cases: an empty histogram returns 0.0 for every p;
     * p <= 0 (and NaN) returns min(); p >= 100 returns max(); a
     * single-sample histogram returns that sample for every p.
     */
    double percentile(double p) const;

    const std::array<std::uint64_t, kBuckets> &buckets() const
    {
        return buckets_;
    }

    void reset() { *this = LogHistogram(); }

  private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/** Interned-handle metric store; see file comment. */
class MetricsRegistry {
  public:
    using Handle = std::uint32_t;

    /**
     * Interns a counter (monotonic uint64) named @p name under
     * @p scope; returns the existing handle on re-registration.
     */
    Handle counter(std::string_view name,
                   std::uint16_t scope = kGlobalScope);
    /** Interns a gauge (last-write-wins uint64). */
    Handle gauge(std::string_view name,
                 std::uint16_t scope = kGlobalScope);
    /** Interns a log-bucketed histogram. */
    Handle histogram(std::string_view name,
                     std::uint16_t scope = kGlobalScope);

    void add(Handle h, std::uint64_t delta = 1)
    {
        counter_values_[h] += delta;
    }
    void set(Handle h, std::uint64_t value) { gauge_values_[h] = value; }
    void observe(Handle h, std::uint64_t value)
    {
        histogram_values_[h].observe(value);
    }

    std::uint64_t counter_value(Handle h) const
    {
        return counter_values_[h];
    }
    std::uint64_t gauge_value(Handle h) const { return gauge_values_[h]; }
    const LogHistogram &histogram_value(Handle h) const
    {
        return histogram_values_[h];
    }

    /** Cold-path update by name (interns on first use). */
    void bump(std::string_view name, std::uint64_t delta = 1,
              std::uint16_t scope = kGlobalScope)
    {
        add(counter(name, scope), delta);
    }

    /** Global-scope counter value of @p name, zero if never registered. */
    std::uint64_t get(std::string_view name) const;

    /**
     * "name=value name=value ..." of the global-scope counters, in
     * name order.
     */
    std::string to_string() const;

    /**
     * JSON snapshot: {"counters": {...}, "gauges": {...},
     * "histograms": {name: {count, sum, mean, min, max, p50, p99}}}.
     * Scoped metric keys are prefixed "fnN/".
     */
    std::string to_json() const;

    /**
     * Prometheus text exposition (version 0.0.4). Metric names are
     * prefixed "nesc_" and sanitized to [a-zA-Z0-9_]; one `# TYPE`
     * line per family. Scoped metrics become labelled samples of the
     * shared family (`nesc_faults{fn="3"} 7`). Histograms export as
     * summaries: p50/p99/p999 quantile samples plus _sum and _count.
     */
    std::string to_prometheus() const;

    /** Display name of counter handle @p h ("name" or "fnN/name"). */
    std::string counter_key(Handle h) const;
    /** Display name of gauge handle @p h ("name" or "fnN/name"). */
    std::string gauge_key(Handle h) const;

    std::size_t counter_count() const { return counter_values_.size(); }
    std::size_t gauge_count() const { return gauge_values_.size(); }
    std::size_t histogram_count() const
    {
        return histogram_values_.size();
    }

    /** Zeroes every value; handles stay valid. */
    void reset_values();

  private:
    struct Meta {
        std::string name;
        std::uint16_t scope;
    };
    using Key = std::pair<std::string, std::uint16_t>;

    std::map<Key, Handle> counter_index_;
    std::map<Key, Handle> gauge_index_;
    std::map<Key, Handle> histogram_index_;
    std::vector<Meta> counter_meta_;
    std::vector<Meta> gauge_meta_;
    std::vector<Meta> histogram_meta_;
    std::vector<std::uint64_t> counter_values_;
    std::vector<std::uint64_t> gauge_values_;
    std::vector<LogHistogram> histogram_values_;
};

} // namespace nesc::obs

#endif // NESC_OBS_METRICS_H
