/**
 * @file
 * Unit tests for the observability layer: Tracer (ring, wrap, exact
 * stage totals, Chrome JSON export), MetricsRegistry (interned
 * handles, scoping, compat shims, JSON snapshot), LogHistogram, the
 * PF-only telemetry MMIO registers, and PfDriver::dump_telemetry().
 */
#include <gtest/gtest.h>

#include "nesc/telemetry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "virt/testbed.h"
#include "workloads/dd.h"

namespace nesc {
namespace {

// --- Tracer -----------------------------------------------------------

TEST(Tracer, DisabledRecordsNothing)
{
    obs::Tracer tracer;
    EXPECT_FALSE(tracer.enabled());
    tracer.span(obs::Stage::kTransfer, 1, 100, 200);
    tracer.instant(obs::Stage::kDoorbell, 1, 100);
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.capacity(), 0u); // no ring until enable()
    EXPECT_EQ(tracer.totals(obs::Stage::kTransfer).count, 0u);
}

TEST(Tracer, RecordsSpansAndInstants)
{
    obs::Tracer tracer;
    tracer.enable(16);
    tracer.span(obs::Stage::kTransfer, 2, 100, 350, 7, 42);
    tracer.instant(obs::Stage::kComplete, 2, 350, 7);
    ASSERT_EQ(tracer.size(), 2u);
    const auto events = tracer.events();
    EXPECT_EQ(events[0].stage, obs::Stage::kTransfer);
    EXPECT_EQ(events[0].start, 100u);
    EXPECT_EQ(events[0].dur, 250u);
    EXPECT_EQ(events[0].fn, 2u);
    EXPECT_EQ(events[0].tag, 7u);
    EXPECT_EQ(events[0].aux, 42u);
    EXPECT_EQ(events[1].stage, obs::Stage::kComplete);
    EXPECT_EQ(events[1].dur, 0u); // instant
}

TEST(Tracer, RingWrapKeepsTotalsExact)
{
    obs::Tracer tracer;
    tracer.enable(8);
    for (std::uint64_t i = 0; i < 20; ++i)
        tracer.span(obs::Stage::kWalk, 1, i * 10, i * 10 + 5);
    EXPECT_EQ(tracer.recorded(), 20u);
    EXPECT_EQ(tracer.dropped(), 12u);
    EXPECT_EQ(tracer.size(), 8u); // ring holds only the tail
    // Retained events are the latest 8, in chronological order.
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 8u);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LT(events[i - 1].start, events[i].start);
    EXPECT_EQ(events.back().start, 190u);
    // Totals aggregate at record time, so wrap does not lose them.
    const obs::StageTotals &totals = tracer.totals(obs::Stage::kWalk);
    EXPECT_EQ(totals.count, 20u);
    EXPECT_EQ(totals.total_ns, 20u * 5u);
}

TEST(Tracer, ReenableResetsState)
{
    obs::Tracer tracer;
    tracer.enable(8);
    tracer.span(obs::Stage::kWalk, 1, 0, 5);
    tracer.disable();
    EXPECT_FALSE(tracer.enabled());
    EXPECT_EQ(tracer.size(), 1u); // readable after disable
    tracer.enable(8);
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_EQ(tracer.totals(obs::Stage::kWalk).count, 0u);
}

TEST(Tracer, ChromeJsonShapeAndTracks)
{
    obs::Tracer tracer;
    tracer.enable(16);
    tracer.span(obs::Stage::kTransfer, 1, 2000, 3000, 5);
    tracer.span(obs::Stage::kLink, obs::kLinkTrack, 2100, 2500, 0, 4096);
    tracer.instant(obs::Stage::kDoorbell, 0, 1000);
    const std::string json = tracer.chrome_json();
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // One metadata track per function seen, with stable names.
    EXPECT_NE(json.find("fn0 (PF)"), std::string::npos);
    EXPECT_NE(json.find("fn1"), std::string::npos);
    EXPECT_NE(json.find("pcie-link"), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
    // Events are emitted sorted by start time (Perfetto-friendly).
    const std::size_t doorbell = json.find("\"doorbell\"");
    const std::size_t transfer = json.find("\"transfer\"");
    ASSERT_NE(doorbell, std::string::npos);
    ASSERT_NE(transfer, std::string::npos);
}

TEST(Tracer, StageNamesAreStable)
{
    EXPECT_STREQ(obs::stage_name(obs::Stage::kQueueWait), "queue_wait");
    EXPECT_STREQ(obs::stage_name(obs::Stage::kTranslate), "translate");
    EXPECT_STREQ(obs::stage_name(obs::Stage::kTransfer), "transfer");
    EXPECT_STREQ(obs::stage_name(obs::Stage::kLink), "link");
}

TEST(Tracer, FlameSummaryListsRecordedStages)
{
    obs::Tracer tracer;
    tracer.enable(8);
    tracer.span(obs::Stage::kTranslate, 1, 0, 1000);
    tracer.span(obs::Stage::kTranslate, 1, 1000, 3000);
    const std::string summary = tracer.flame_summary();
    EXPECT_NE(summary.find("translate"), std::string::npos);
    EXPECT_NE(summary.find("2"), std::string::npos);
}

// --- LogHistogram -----------------------------------------------------

TEST(LogHistogram, ExactCountSumMeanMinMax)
{
    obs::LogHistogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.mean(), 0.0);
    for (std::uint64_t v : {100u, 200u, 300u})
        hist.observe(v);
    EXPECT_EQ(hist.count(), 3u);
    EXPECT_EQ(hist.sum(), 600u);
    EXPECT_DOUBLE_EQ(hist.mean(), 200.0);
    EXPECT_EQ(hist.min(), 100u);
    EXPECT_EQ(hist.max(), 300u);
}

TEST(LogHistogram, PercentileWithinBucketBounds)
{
    obs::LogHistogram hist;
    for (int i = 0; i < 100; ++i)
        hist.observe(1000); // bucket [512, 1024)... bit_width(1000)=10
    const double p50 = hist.percentile(50.0);
    // Clamped to [min, max], so a single-value distribution is exact.
    EXPECT_DOUBLE_EQ(p50, 1000.0);
    hist.observe(1u << 20);
    EXPECT_GE(hist.percentile(100.0), hist.percentile(50.0));
    EXPECT_LE(hist.percentile(100.0), static_cast<double>(hist.max()));
}

TEST(LogHistogram, ResetClears)
{
    obs::LogHistogram hist;
    hist.observe(7);
    hist.reset();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.sum(), 0u);
    EXPECT_EQ(hist.max(), 0u);
}

// --- MetricsRegistry --------------------------------------------------

TEST(MetricsRegistry, InternReturnsStableHandles)
{
    obs::MetricsRegistry metrics;
    const auto h1 = metrics.counter("reads");
    const auto h2 = metrics.counter("reads");
    const auto h3 = metrics.counter("writes");
    EXPECT_EQ(h1, h2);
    EXPECT_NE(h1, h3);
    EXPECT_EQ(metrics.counter_count(), 2u);
}

TEST(MetricsRegistry, CountersGaugesHistograms)
{
    obs::MetricsRegistry metrics;
    const auto c = metrics.counter("ops");
    const auto g = metrics.gauge("depth");
    const auto h = metrics.histogram("latency");
    metrics.add(c);
    metrics.add(c, 4);
    metrics.set(g, 9);
    metrics.set(g, 3);
    metrics.observe(h, 1000);
    EXPECT_EQ(metrics.counter_value(c), 5u);
    EXPECT_EQ(metrics.gauge_value(g), 3u); // last write wins
    EXPECT_EQ(metrics.histogram_value(h).count(), 1u);
}

TEST(MetricsRegistry, ScopedCountersAreDistinct)
{
    obs::MetricsRegistry metrics;
    const auto global = metrics.counter("faults");
    const auto fn1 = metrics.counter("faults", 1);
    const auto fn2 = metrics.counter("faults", 2);
    EXPECT_NE(global, fn1);
    EXPECT_NE(fn1, fn2);
    metrics.add(fn1, 7);
    EXPECT_EQ(metrics.counter_value(fn1), 7u);
    EXPECT_EQ(metrics.counter_value(global), 0u);
    // get() only sees global scope.
    EXPECT_EQ(metrics.get("faults"), 0u);
    metrics.add(global, 2);
    EXPECT_EQ(metrics.get("faults"), 2u);
}

TEST(MetricsRegistry, BumpAndGetCompat)
{
    obs::MetricsRegistry metrics;
    metrics.bump("cold_path");
    metrics.bump("cold_path", 9);
    EXPECT_EQ(metrics.get("cold_path"), 10u);
    EXPECT_EQ(metrics.get("never_registered"), 0u);
    // Reading a name does not register it.
    EXPECT_EQ(metrics.to_string(), "cold_path=10");
}

TEST(MetricsRegistry, ToStringIsNameOrdered)
{
    obs::MetricsRegistry metrics;
    metrics.bump("zeta", 1);
    metrics.bump("alpha", 2);
    const std::string s = metrics.to_string();
    EXPECT_LT(s.find("alpha=2"), s.find("zeta=1"));
}

TEST(MetricsRegistry, ToJsonSnapshot)
{
    obs::MetricsRegistry metrics;
    metrics.bump("ops", 3);
    metrics.set(metrics.gauge("qd"), 8);
    metrics.observe(metrics.histogram("lat"), 500);
    metrics.add(metrics.counter("faults", 2), 1);
    const std::string json = metrics.to_json();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"ops\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"qd\": 8"), std::string::npos);
    EXPECT_NE(json.find("\"fn2/faults\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"lat\""), std::string::npos);
    EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(MetricsRegistry, ResetValuesKeepsHandles)
{
    obs::MetricsRegistry metrics;
    const auto c = metrics.counter("ops");
    metrics.add(c, 5);
    metrics.reset_values();
    EXPECT_EQ(metrics.counter_value(c), 0u);
    metrics.add(c);
    EXPECT_EQ(metrics.counter_value(c), 1u);
}

// --- Telemetry registers / dump_telemetry -----------------------------

virt::TestbedConfig
small_config()
{
    virt::TestbedConfig config;
    config.device.capacity_bytes = 64ULL << 20;
    config.host_memory_bytes = 64ULL << 20;
    return config;
}

class TelemetryTest : public ::testing::Test {
  protected:
    TelemetryTest()
    {
        auto bed = virt::Testbed::create(small_config());
        EXPECT_TRUE(bed.is_ok()) << bed.status().to_string();
        bed_ = std::move(bed).value();
    }

    util::Result<std::uint64_t>
    pf_read(std::uint64_t offset)
    {
        return bed_->bar().read(
            bed_->bar().function_base(pcie::kPhysicalFunctionId) + offset,
            8);
    }

    util::Status
    pf_write(std::uint64_t offset, std::uint64_t value)
    {
        return bed_->bar().write(
            bed_->bar().function_base(pcie::kPhysicalFunctionId) + offset,
            value, 8);
    }

    std::unique_ptr<virt::Testbed> bed_;
};

TEST_F(TelemetryTest, CountMatchesDirectory)
{
    auto count = pf_read(ctrl::reg::kTelemetryCount);
    ASSERT_TRUE(count.is_ok());
    EXPECT_EQ(*count, ctrl::kTelemetryCounters.size());
    EXPECT_GE(*count, 12u); // the PR's acceptance floor
}

TEST_F(TelemetryTest, SelectValueReadsPerVfCounters)
{
    auto vm = bed_->create_nesc_guest("/tele.img", 4096, true);
    ASSERT_TRUE(vm.is_ok());
    auto fn = bed_->guest_vf(**vm);
    ASSERT_TRUE(fn.is_ok());
    wl::DdConfig dd;
    dd.request_bytes = 4096;
    dd.total_bytes = 64 * 4096;
    ASSERT_TRUE(
        wl::run_dd_raw(bed_->sim(), (*vm)->raw_disk(), dd).is_ok());

    // Index 0 is "commands"; read it for the VF through select/value.
    ASSERT_TRUE(
        pf_write(ctrl::reg::kTelemetrySelect, (0ull << 16) | *fn).is_ok());
    auto value = pf_read(ctrl::reg::kTelemetryValue);
    ASSERT_TRUE(value.is_ok());
    EXPECT_EQ(*value, bed_->controller().stats(*fn).commands);
    EXPECT_GT(*value, 0u);
}

TEST_F(TelemetryTest, NameRegistersSpellTheCounterName)
{
    // Select index 3 = holes_zero_filled (17 chars, spans 3 regs).
    ASSERT_TRUE(pf_write(ctrl::reg::kTelemetrySelect, 3ull << 16).is_ok());
    std::string name;
    for (std::size_t chunk = 0; chunk < 3; ++chunk) {
        auto packed = pf_read(ctrl::reg::kTelemetryName0 + 8 * chunk);
        ASSERT_TRUE(packed.is_ok());
        for (unsigned shift = 0; shift < 64; shift += 8) {
            const char ch = static_cast<char>((*packed >> shift) & 0xff);
            if (ch == '\0')
                break;
            name.push_back(ch);
        }
    }
    EXPECT_EQ(name, "holes_zero_filled");
}

TEST_F(TelemetryTest, InvalidSelectionReadsAllOnes)
{
    // Out-of-range counter index.
    ASSERT_TRUE(
        pf_write(ctrl::reg::kTelemetrySelect, 1000ull << 16).is_ok());
    auto value = pf_read(ctrl::reg::kTelemetryValue);
    ASSERT_TRUE(value.is_ok());
    EXPECT_EQ(*value, ~std::uint64_t{0});
    // Out-of-range function id.
    ASSERT_TRUE(pf_write(ctrl::reg::kTelemetrySelect, 0x7fff).is_ok());
    value = pf_read(ctrl::reg::kTelemetryValue);
    ASSERT_TRUE(value.is_ok());
    EXPECT_EQ(*value, ~std::uint64_t{0});
}

TEST_F(TelemetryTest, TelemetryRegistersArePfOnly)
{
    auto vm = bed_->create_nesc_guest("/vfpriv.img", 1024, true);
    ASSERT_TRUE(vm.is_ok());
    auto fn = bed_->guest_vf(**vm);
    ASSERT_TRUE(fn.is_ok());
    const std::uint64_t vf_base = bed_->bar().function_base(*fn);
    EXPECT_FALSE(
        bed_->bar().read(vf_base + ctrl::reg::kTelemetryCount, 8).is_ok());
    EXPECT_FALSE(
        bed_->bar().read(vf_base + ctrl::reg::kTelemetryValue, 8).is_ok());
    EXPECT_FALSE(bed_->bar()
                     .write(vf_base + ctrl::reg::kTelemetrySelect, 0, 8)
                     .is_ok());
}

TEST_F(TelemetryTest, DumpTelemetryReadsFullDirectory)
{
    auto vm = bed_->create_nesc_guest("/dump.img", 4096, true);
    ASSERT_TRUE(vm.is_ok());
    auto fn = bed_->guest_vf(**vm);
    ASSERT_TRUE(fn.is_ok());
    wl::DdConfig dd;
    dd.request_bytes = 4096;
    dd.total_bytes = 32 * 4096;
    dd.write = true;
    ASSERT_TRUE(
        wl::run_dd_raw(bed_->sim(), (*vm)->raw_disk(), dd).is_ok());

    auto entries = bed_->pf().dump_telemetry(*fn);
    ASSERT_TRUE(entries.is_ok()) << entries.status().to_string();
    ASSERT_EQ(entries->size(), ctrl::kTelemetryCounters.size());
    EXPECT_GE(entries->size(), 12u);
    const auto &stats = bed_->controller().stats(*fn);
    for (std::size_t i = 0; i < entries->size(); ++i) {
        EXPECT_EQ((*entries)[i].name, ctrl::kTelemetryCounters[i].name);
        EXPECT_EQ((*entries)[i].value,
                  stats.*(ctrl::kTelemetryCounters[i].field));
    }
    // The workload must have left visible footprints.
    auto find = [&](const std::string &name) -> std::uint64_t {
        for (const auto &e : *entries)
            if (e.name == name)
                return e.value;
        return ~std::uint64_t{0};
    };
    EXPECT_GT(find("commands"), 0u);
    EXPECT_GT(find("blocks_written"), 0u);
    EXPECT_GT(find("completions"), 0u);
}

TEST_F(TelemetryTest, DumpTelemetryRejectsBogusFunction)
{
    auto entries = bed_->pf().dump_telemetry(0x7fff);
    EXPECT_FALSE(entries.is_ok());
}

// --- End-to-end tracing through the controller ------------------------

TEST_F(TelemetryTest, ControllerTraceCoversLifecycle)
{
    bed_->controller().enable_tracing(1 << 14);
    auto vm = bed_->create_nesc_guest("/traced.img", 4096, true);
    ASSERT_TRUE(vm.is_ok());
    wl::DdConfig dd;
    dd.request_bytes = 4096;
    dd.total_bytes = 32 * 4096;
    ASSERT_TRUE(
        wl::run_dd_raw(bed_->sim(), (*vm)->raw_disk(), dd).is_ok());

    const obs::Tracer &tracer = bed_->controller().tracer();
    EXPECT_GT(tracer.recorded(), 0u);
    for (obs::Stage stage :
         {obs::Stage::kDoorbell, obs::Stage::kCmdFetch,
          obs::Stage::kQueueWait, obs::Stage::kTranslate,
          obs::Stage::kTransfer, obs::Stage::kDmaWrite, obs::Stage::kLink,
          obs::Stage::kComplete}) {
        EXPECT_GT(tracer.totals(stage).count, 0u)
            << "no events for stage " << obs::stage_name(stage);
    }
    // Span totals equal the stage histograms (same timestamps).
    const auto &queue = bed_->controller().stage_queue_wait();
    EXPECT_EQ(tracer.totals(obs::Stage::kQueueWait).count, queue.count());
    EXPECT_EQ(tracer.totals(obs::Stage::kQueueWait).total_ns,
              queue.sum());
    // The export carries a track for the VF and the shared link.
    const std::string json = tracer.chrome_json();
    EXPECT_NE(json.find("pcie-link"), std::string::npos);
    EXPECT_NE(json.find("\"fn1\""), std::string::npos);
    EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
}

} // namespace
} // namespace nesc
