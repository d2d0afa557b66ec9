/**
 * @file
 * Measurement collection: running summaries and percentile samplers
 * used by the benchmark harness and device models.
 */
#ifndef NESC_UTIL_STATS_H
#define NESC_UTIL_STATS_H

#include <cstdint>
#include <vector>

namespace nesc::util {

/**
 * Running summary of a scalar series: count, mean, min, max, stddev.
 * O(1) memory; use Sampler when percentiles are needed.
 */
class Summary {
  public:
    void add(double v);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return sum_; }
    /** Population standard deviation (Welford). */
    double stddev() const;

    void reset() { *this = Summary(); }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double mean_ = 0.0; // Welford running mean
    double m2_ = 0.0;   // Welford running sum of squared deltas
};

/**
 * Stores every sample to answer percentile queries exactly. Intended
 * for latency series of up to a few million entries.
 */
class Sampler {
  public:
    void add(double v);

    std::uint64_t count() const { return samples_.size(); }
    double mean() const;
    /** Exact percentile, p in [0, 100]; returns 0 when empty. */
    double percentile(double p) const;
    double median() const { return percentile(50.0); }

    const std::vector<double> &samples() const { return samples_; }

  private:
    void ensure_sorted() const;

    std::vector<double> samples_;
    mutable std::vector<double> sorted_;
    mutable bool sorted_valid_ = false;
};

} // namespace nesc::util

#endif // NESC_UTIL_STATS_H
