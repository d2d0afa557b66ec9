/**
 * @file
 * Self-test of the benchmark's percentile-rank and share-error helpers
 * on known inputs. Exits non-zero on the first failed expectation;
 * perfbench/run.py runs it before every benchmark run.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void
expect_near(double got, double want, const char *what)
{
    if (std::abs(got - want) > 1e-12) {
        std::fprintf(stderr, "FAIL %s: got %.15g, want %.15g\n", what, got,
                     want);
        ++g_failures;
    }
}

} // namespace

int
main()
{
    using perfbench::median;
    using perfbench::percentile_rank;
    using perfbench::share_error_max;

    std::vector<std::uint64_t> four = {4, 1, 3, 2};
    expect_near(percentile_rank(four, 50), 2, "p50 of 1..4");
    expect_near(percentile_rank(four, 75), 3, "p75 of 1..4");
    expect_near(percentile_rank(four, 100), 4, "p100 of 1..4");
    expect_near(percentile_rank(four, 0), 1, "p0 clamps to the minimum");

    std::vector<std::uint64_t> hundred;
    for (std::uint64_t v = 100; v >= 1; --v)
        hundred.push_back(v);
    expect_near(percentile_rank(hundred, 99), 99, "p99 of 1..100");
    expect_near(percentile_rank(hundred, 50), 50, "p50 of 1..100");
    expect_near(percentile_rank(hundred, 99.5), 100, "p99.5 of 1..100");

    std::vector<std::uint64_t> one = {7};
    expect_near(percentile_rank(one, 99), 7, "single sample");
    std::vector<std::uint64_t> none;
    expect_near(percentile_rank(none, 50), 0, "empty sample");

    expect_near(median({3.0, 1.0, 2.0}), 2.0, "odd median");
    expect_near(median({4.0, 1.0, 3.0, 2.0}), 2.5, "even median");

    // Weights 1:3, service 1:3 -> exact.
    expect_near(share_error_max({10, 30}, {1, 3}), 0.0, "ideal shares");
    // Weights 1:1, service 1:3 -> shares 0.25 / 0.75 vs 0.5: 50% off.
    expect_near(share_error_max({10, 30}, {1, 1}), 0.5, "1:3 on 1:1");
    // Heavy client 15 of 20 served against 16 of 20 ideal is 6.25% off;
    // the light client served 2 of 20 against 1 of 20 is 100% off.
    expect_near(share_error_max({15, 2, 1, 1, 1}, {16, 1, 1, 1, 1}), 1.0,
                "favoured light client");
    expect_near(share_error_max({150, 13, 12, 13, 12}, {16, 1, 1, 1, 1}),
                std::abs((13.0 / 200.0) / (1.0 / 20.0) - 1.0),
                "mixed weights");
    expect_near(share_error_max({42}, {5}), 0.0, "one client is exact");
    expect_near(share_error_max({0, 0}, {1, 1}), 0.0, "nothing served");

    if (g_failures != 0) {
        std::fprintf(stderr, "stats_test: %d failure(s)\n", g_failures);
        return 1;
    }
    std::printf("stats_test: all expectations met\n");
    return 0;
}
