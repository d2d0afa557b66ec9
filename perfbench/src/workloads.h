/**
 * @file
 * Workloads of the repository benchmark and the result of one
 * repetition (set up a fresh testbed, run the fixed simulated workload,
 * check it).
 *
 * Every figure a workload reports is keyed by the metric name that
 * BENCHMARK.json and perfbench/README.md use. Simulated-clock figures
 * and counts go to RepResult::sim and must repeat bit-for-bit across
 * repetitions with one seed and between the untraced and the traced
 * run; host-clock per-layer figures are only taken in the traced run.
 */
#ifndef NESC_PERFBENCH_WORKLOADS_H
#define NESC_PERFBENCH_WORKLOADS_H

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace perfbench {

/** Metric name -> value, ordered so dumps and comparisons are stable. */
using Figures = std::map<std::string, double>;

struct RepOptions {
    std::uint64_t seed = 1;
    /** Traced run: host stamps at layer boundaries + controller Tracer. */
    bool traced = false;
};

struct RepResult {
    /** Host seconds from repetition start to the first measured op. */
    double setup_s = 0.0;
    /** Host seconds of the run phase (first submit to last completion). */
    double run_host_s = 0.0;
    /** Ops completed by all clients in the run phase. */
    std::uint64_t ops = 0;
    /** Simulator events executed in the run phase. */
    std::uint64_t events = 0;
    std::uint64_t attempted = 0;
    /** Non-OK completions plus payload mismatches against the oracle. */
    std::uint64_t failed = 0;
    /** Wrong data returned or found (oracle mismatches, fsck errors). */
    std::uint64_t data_errors = 0;
    /** Simulated-clock figures and counts (deterministic). */
    Figures sim;
    /** Host-clock per-layer figures; reported from the traced run. */
    Figures host;
    /** Failed accounting identities and other self-checks. */
    std::vector<std::string> problems;
};

RepResult run_vf256_read(const RepOptions &options);
RepResult run_lazy_write_durable(const RepOptions &options);
/** Reproducer of a known fault-service defect; not in BENCHMARK.json. */
RepResult run_lazy_write_contended(const RepOptions &options);
RepResult run_nested_apps(const RepOptions &options);

/** Growth of one controller stage histogram over the run phase. */
struct StageDelta {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::array<std::uint64_t, nesc::obs::LogHistogram::kBuckets> buckets{};

    static StageDelta between(const nesc::obs::LogHistogram &before,
                              const nesc::obs::LogHistogram &after);
    void add(const StageDelta &other);
    /** Log-bucket geometric midpoint, as obs::LogHistogram reports. */
    double percentile_ns(double p) const;
    double mean_us() const;
};

/** Setup cannot go wrong on a correct program: report and exit 2. */
[[noreturn]] inline void
setup_failed(const char *what, const nesc::util::Status &status)
{
    std::fprintf(stderr, "perfbench: setup failed (%s): %s\n", what,
                 status.to_string().c_str());
    std::exit(2);
}

inline void
check(const nesc::util::Status &status, const char *what)
{
    if (!status.is_ok())
        setup_failed(what, status);
}

template <typename T>
T
check(nesc::util::Result<T> result, const char *what)
{
    if (!result.is_ok())
        setup_failed(what, result.status());
    return std::move(result).value();
}

/** Seconds between two host_now_ns() stamps. */
inline double
host_seconds(std::uint64_t from_ns, std::uint64_t to_ns)
{
    return static_cast<double>(to_ns - from_ns) / 1e9;
}

} // namespace perfbench

#endif // NESC_PERFBENCH_WORKLOADS_H
