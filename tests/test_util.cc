/**
 * @file
 * Unit tests for the util module: Status/Result, units, Rng, stats,
 * Table, the journal checksum.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "controller_rig.h"
#include "util/journal_checksum.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"
#include "util/units.h"

namespace nesc::util {
namespace {

// --- Status / Result --------------------------------------------------

TEST(Status, DefaultIsOk)
{
    Status s;
    EXPECT_TRUE(s.is_ok());
    EXPECT_EQ(s.code(), ErrorCode::kOk);
    EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage)
{
    Status s = not_found_error("missing thing");
    EXPECT_FALSE(s.is_ok());
    EXPECT_EQ(s.code(), ErrorCode::kNotFound);
    EXPECT_EQ(s.message(), "missing thing");
    EXPECT_EQ(s.to_string(), "NOT_FOUND: missing thing");
}

TEST(Status, AllFactoriesProduceDistinctCodes)
{
    EXPECT_EQ(invalid_argument_error("").code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(out_of_range_error("").code(), ErrorCode::kOutOfRange);
    EXPECT_EQ(already_exists_error("").code(), ErrorCode::kAlreadyExists);
    EXPECT_EQ(permission_denied_error("").code(),
              ErrorCode::kPermissionDenied);
    EXPECT_EQ(resource_exhausted_error("").code(),
              ErrorCode::kResourceExhausted);
    EXPECT_EQ(failed_precondition_error("").code(),
              ErrorCode::kFailedPrecondition);
    EXPECT_EQ(unavailable_error("").code(), ErrorCode::kUnavailable);
    EXPECT_EQ(data_loss_error("").code(), ErrorCode::kDataLoss);
    EXPECT_EQ(unimplemented_error("").code(), ErrorCode::kUnimplemented);
    EXPECT_EQ(internal_error("").code(), ErrorCode::kInternal);
}

TEST(Result, HoldsValue)
{
    Result<int> r(42);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(*r, 42);
    EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError)
{
    Result<int> r = not_found_error("nope");
    EXPECT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
    EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, MoveOnlyTypes)
{
    Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
    ASSERT_TRUE(r.is_ok());
    std::unique_ptr<int> owned = std::move(r).value();
    EXPECT_EQ(*owned, 5);
}

util::Result<int>
helper_propagates(bool fail)
{
    NESC_ASSIGN_OR_RETURN(
        int v, fail ? Result<int>(internal_error("boom")) : Result<int>(2));
    return v * 10;
}

TEST(Result, AssignOrReturnMacro)
{
    EXPECT_EQ(*helper_propagates(false), 20);
    EXPECT_EQ(helper_propagates(true).status().code(),
              ErrorCode::kInternal);
}

// --- Units ------------------------------------------------------------

TEST(Units, TransferTime)
{
    EXPECT_EQ(transfer_time_ns(0, 1000), 0u);
    EXPECT_EQ(transfer_time_ns(1000, 0), 0u); // infinitely fast
    EXPECT_EQ(transfer_time_ns(1'000'000'000, 1'000'000'000), kNsPerSec);
    // Rounds up.
    EXPECT_EQ(transfer_time_ns(1, 1'000'000'000), 1u);
}

TEST(Units, TransferTimeLargeNoOverflow)
{
    // 1 TiB at 1 GB/s ~ 1100 seconds; must not overflow.
    const std::uint64_t t =
        transfer_time_ns(1ULL << 40, 1'000'000'000ULL);
    EXPECT_NEAR(static_cast<double>(t) / kNsPerSec, 1099.5, 0.5);
}

TEST(Units, Bandwidth)
{
    EXPECT_DOUBLE_EQ(bandwidth_mb_per_sec(1'000'000, kNsPerSec), 1.0);
    EXPECT_DOUBLE_EQ(bandwidth_mb_per_sec(123, 0), 0.0);
}

TEST(Units, Rounding)
{
    EXPECT_EQ(ceil_div(10, 3), 4u);
    EXPECT_EQ(ceil_div(9, 3), 3u);
    EXPECT_EQ(round_up(10, 8), 16u);
    EXPECT_EQ(round_up(16, 8), 16u);
    EXPECT_EQ(round_down(15, 8), 8u);
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(4096));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(24));
}

// --- Journal checksum ----------------------------------------------------

/** Byte-serial form of the journal checksum. */
std::uint64_t
serial_journal_checksum(std::span<const std::byte> data)
{
    std::uint64_t sum = 0;
    for (std::byte b : data)
        sum = sum * 131 + static_cast<std::uint64_t>(b);
    return sum;
}

TEST(JournalChecksum, MatchesByteSerialSumOnRandomLengths)
{
    Rng rng(131);
    std::vector<std::byte> data(5000);
    for (std::byte &b : data)
        b = static_cast<std::byte>(rng.next());
    // Every length 0-64 covers each tail length with zero to eight
    // whole groups; random lengths up to 5000 cover long payloads and
    // random starting offsets.
    for (std::size_t len = 0; len <= 64; ++len) {
        const std::span<const std::byte> span(data.data(), len);
        EXPECT_EQ(journal_checksum(span), serial_journal_checksum(span))
            << "length " << len;
    }
    for (int i = 0; i < 200; ++i) {
        const std::size_t len = rng.next_below(5001);
        const std::size_t start = rng.next_below(data.size() - len + 1);
        const std::span<const std::byte> span(data.data() + start, len);
        EXPECT_EQ(journal_checksum(span), serial_journal_checksum(span))
            << "length " << len << " at " << start;
    }
    const std::vector<std::byte> ones(1024, std::byte{0xff});
    EXPECT_EQ(journal_checksum(ones), serial_journal_checksum(ones));
}

// --- Rng ---------------------------------------------------------------

TEST(Rng, DeterministicPerSeed)
{
    Rng a(1), b(1), c(2);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextInInclusiveRange)
{
    Rng rng(4);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.next_in(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo |= v == 5;
        saw_hi |= v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.next_double();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ZipfSkewsTowardLowRanks)
{
    Rng rng(6);
    std::uint64_t low = 0, high = 0;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t v = rng.zipf(1000, 0.99);
        EXPECT_LT(v, 1000u);
        if (v < 10)
            ++low;
        if (v >= 500)
            ++high;
    }
    EXPECT_GT(low, high); // rank-0..9 far more popular than the tail
}

TEST(Rng, ZipfZeroAndOneItems)
{
    Rng rng(7);
    EXPECT_EQ(rng.zipf(1, 0.99), 0u);
    EXPECT_EQ(rng.zipf(0, 0.99), 0u);
}

// --- Stats -------------------------------------------------------------

TEST(Summary, Empty)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, Basics)
{
    Summary s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-9); // classic example: sigma = 2
}

TEST(Sampler, Percentiles)
{
    Sampler s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.median(), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
    EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Sampler, EmptyReturnsZero)
{
    Sampler s;
    EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Sampler, InterleavedAddAndQuery)
{
    Sampler s;
    s.add(10);
    EXPECT_DOUBLE_EQ(s.median(), 10.0);
    s.add(20);
    s.add(30);
    EXPECT_DOUBLE_EQ(s.median(), 20.0);
}

// --- Table --------------------------------------------------------------

TEST(Table, AlignsColumns)
{
    Table t({"name", "value"});
    t.row().add("x").add(std::uint64_t{1});
    t.row().add("longer").add(2.5, 1);
    const std::string s = t.to_string();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_NE(s.find("2.5"), std::string::npos);
    EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.row().add(std::uint64_t{1}).add(std::uint64_t{2});
    EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

// --- Logging ------------------------------------------------------------

/** Resets global log state around each logging test. */
class LogTest : public ::testing::Test {
  protected:
    LogTest()
    {
        set_log_level(LogLevel::kWarn);
        clear_component_log_levels();
    }
    ~LogTest() override
    {
        set_log_level(LogLevel::kWarn);
        clear_component_log_levels();
    }
};

TEST_F(LogTest, SinkCapturesEmittedRecords)
{
    ScopedLogSink sink;
    log_at(LogLevel::kWarn, "widget", "thing %d broke", 7);
    ASSERT_EQ(sink.records().size(), 1u);
    EXPECT_EQ(sink.records()[0].level, LogLevel::kWarn);
    EXPECT_EQ(sink.records()[0].component, "widget");
    EXPECT_EQ(sink.records()[0].message, "thing 7 broke");
    EXPECT_TRUE(sink.contains("7 broke"));
    EXPECT_FALSE(sink.contains("fine"));
}

TEST_F(LogTest, GlobalThresholdFilters)
{
    ScopedLogSink sink;
    log_at(LogLevel::kInfo, "widget", "chatty"); // below kWarn
    EXPECT_TRUE(sink.records().empty());
    set_log_level(LogLevel::kDebug);
    log_at(LogLevel::kInfo, "widget", "chatty");
    EXPECT_EQ(sink.records().size(), 1u);
}

TEST_F(LogTest, PerComponentOverridesBeatTheGlobalLevel)
{
    ScopedLogSink sink;
    set_component_log_level("noisy", LogLevel::kDebug);
    set_component_log_level("muted", LogLevel::kOff);
    log_at(LogLevel::kDebug, "noisy", "verbose detail");
    log_at(LogLevel::kError, "muted", "never seen");
    log_at(LogLevel::kInfo, "other", "below global warn");
    ASSERT_EQ(sink.records().size(), 1u);
    EXPECT_EQ(sink.records()[0].component, "noisy");
    EXPECT_EQ(log_level_for("noisy"), LogLevel::kDebug);
    EXPECT_EQ(log_level_for("other"), LogLevel::kWarn);
    clear_component_log_levels();
    EXPECT_EQ(log_level_for("muted"), LogLevel::kWarn);
}

TEST_F(LogTest, ApplyLogSpecParsesTheEnvFormat)
{
    EXPECT_TRUE(apply_log_spec("debug"));
    EXPECT_EQ(log_level(), LogLevel::kDebug);
    EXPECT_TRUE(apply_log_spec("warn,controller=info,dma=off"));
    EXPECT_EQ(log_level(), LogLevel::kWarn);
    EXPECT_EQ(log_level_for("controller"), LogLevel::kInfo);
    EXPECT_EQ(log_level_for("dma"), LogLevel::kOff);
    // Malformed entries report failure but good ones still apply.
    EXPECT_FALSE(apply_log_spec("bogus-level"));
    EXPECT_FALSE(apply_log_spec("controller=warp,fs=error"));
    EXPECT_EQ(log_level_for("fs"), LogLevel::kError);
    EXPECT_FALSE(apply_log_spec("=debug"));
}

TEST_F(LogTest, ControllerWarnPathIsObservableThroughTheSink)
{
    // A doorbell with no command ring programmed must produce the
    // controller's warn diagnostic, tagged with its component.
    test::ControllerRig h(
        {.host_memory_bytes = 8 << 20, .media_bytes = 4 << 20, .config = {}});
    ScopedLogSink sink;
    ASSERT_TRUE(
        h.controller_.mmio_write(0, ctrl::reg::kDoorbell, 1, 8).is_ok());
    h.sim_.run_until_idle();
    EXPECT_TRUE(sink.contains("doorbell with no command ring"));
    ASSERT_FALSE(sink.records().empty());
    EXPECT_EQ(sink.records()[0].component, "controller");
    EXPECT_EQ(sink.records()[0].level, LogLevel::kWarn);
}

} // namespace
} // namespace nesc::util
