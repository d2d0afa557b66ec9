/**
 * @file
 * Order statistics and fairness helpers of the repository benchmark.
 *
 * Header-only and free of simulator dependencies so the self-test
 * (stats_test.cc) can pin them on known inputs.
 */
#ifndef NESC_PERFBENCH_STATS_H
#define NESC_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank percentile of @p values (sorted in place): the smallest
 * sample with at least @p p percent of the samples at or below it.
 * p = 50 of {1, 2, 3, 4} is 2; p = 99 of 1..100 is 99. Returns 0 for
 * an empty sample.
 */
template <typename T>
T
percentile_rank(std::vector<T> &values, double p)
{
    if (values.empty())
        return T{};
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

/** Median of @p values (mean of the middle pair when even). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/**
 * Largest relative gap between any client's measured service share
 * and its weight-ideal share: max_i |(served_i / sum served) /
 * (weight_i / sum weight) - 1|. 0 for one client or when nothing was
 * served.
 */
inline double
share_error_max(const std::vector<std::uint64_t> &served,
                const std::vector<std::uint64_t> &weights)
{
    double served_sum = 0.0;
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < served.size(); ++i) {
        served_sum += static_cast<double>(served[i]);
        weight_sum += static_cast<double>(weights[i]);
    }
    if (served.size() < 2 || served_sum == 0.0 || weight_sum == 0.0)
        return 0.0;
    double worst = 0.0;
    for (std::size_t i = 0; i < served.size(); ++i) {
        const double share = static_cast<double>(served[i]) / served_sum;
        const double ideal = static_cast<double>(weights[i]) / weight_sum;
        worst = std::max(worst, std::abs(share / ideal - 1.0));
    }
    return worst;
}

} // namespace perfbench

#endif // NESC_PERFBENCH_STATS_H
