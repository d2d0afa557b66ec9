/**
 * @file
 * Arbitration-plane tests: the EligibleSet bitmap (legacy-identical
 * visit order, O(words) scan cost), the deterministic token bucket
 * (burst + sustained-rate conformance), the legacy-WRR credit
 * semantics the golden figures depend on, DWRR share convergence, and
 * the O(1)-per-grant scan bound at 256 VFs.
 */
#include <gtest/gtest.h>

#include "controller_rig.h"
#include "nesc/arbiter.h"
#include "workloads/dd.h"

namespace nesc::ctrl {
namespace {

// --- EligibleSet -----------------------------------------------------------

TEST(EligibleSet, AssignTestCount)
{
    EligibleSet set;
    set.resize(130);
    EXPECT_FALSE(set.any());
    set.assign(3, true);
    set.assign(70, true);
    set.assign(129, true);
    set.assign(70, true); // idempotent
    EXPECT_EQ(set.count(), 3u);
    EXPECT_TRUE(set.test(70));
    set.assign(70, false);
    set.assign(70, false); // idempotent
    EXPECT_EQ(set.count(), 2u);
    EXPECT_FALSE(set.test(70));
}

TEST(EligibleSet, NextAfterVisitsCyclicAscending)
{
    EligibleSet set;
    set.resize(256);
    set.assign(3, true);
    set.assign(70, true);
    set.assign(130, true);
    EXPECT_EQ(set.next_after(3), 70);
    EXPECT_EQ(set.next_after(70), 130);
    EXPECT_EQ(set.next_after(130), 3); // wraps through 0
    EXPECT_EQ(set.next_after(200), 3);
    EXPECT_EQ(set.next_after(0), 3);
}

TEST(EligibleSet, NextAfterWrapsToSelf)
{
    // A full cycle may legitimately land back on the function that
    // held the turn — the legacy scan included it, so must the bitmap.
    EligibleSet set;
    set.resize(64);
    set.assign(5, true);
    EXPECT_EQ(set.next_after(5), 5);
    set.assign(63, true);
    set.assign(5, false);
    EXPECT_EQ(set.next_after(63), 63);
}

TEST(EligibleSet, NextAfterEmptyReturnsMinusOne)
{
    EligibleSet set;
    set.resize(64);
    EXPECT_EQ(set.next_after(0), -1);
    set.assign(9, true);
    set.assign(9, false);
    EXPECT_EQ(set.next_after(9), -1);
}

// --- TokenBucket -----------------------------------------------------------

TEST(TokenBucket, StartsFullAndEnforcesBurst)
{
    TokenBucket bucket;
    bucket.configure(1'000'000, 4096, 0);
    EXPECT_TRUE(bucket.limited());
    EXPECT_TRUE(bucket.ready(4096, 0)); // full burst available at once
    bucket.spend(4096);
    EXPECT_FALSE(bucket.ready(1, 0));
    // Tokens cap at burst no matter how long the bucket idles.
    EXPECT_TRUE(bucket.ready(4096, 1'000'000'000'000ull));
    EXPECT_FALSE(bucket.ready(4097, 1'000'000'000'000ull));
}

TEST(TokenBucket, SustainedRateIsExact)
{
    // 1000 bytes/s: one byte accrues every 10^6 ns, exactly.
    TokenBucket bucket;
    bucket.configure(1000, 500, 0);
    bucket.spend(500);
    EXPECT_EQ(bucket.ready_time(1, 0), 1'000'000u);
    EXPECT_FALSE(bucket.ready(1, 999'999));
    EXPECT_TRUE(bucket.ready(1, 1'000'000));
    // The fractional byte-nanosecond carry banks across refills: two
    // half-byte accruals make one whole byte, with nothing lost.
    bucket.configure(1000, 500, 0);
    bucket.spend(500);
    EXPECT_FALSE(bucket.ready(1, 500'000));
    EXPECT_TRUE(bucket.ready(1, 1'000'000));
    // ready_time rounds up to the next whole byte.
    bucket.configure(3, 100, 0);
    bucket.spend(100);
    const sim::Time t = bucket.ready_time(1, 0);
    EXPECT_EQ(t, (1'000'000'000u + 2) / 3);
}

TEST(TokenBucket, UnlimitedBypassesAccounting)
{
    TokenBucket bucket;
    EXPECT_FALSE(bucket.limited());
    EXPECT_TRUE(bucket.ready(1ull << 40, 0));
    EXPECT_EQ(bucket.ready_time(1ull << 40, 123), 123u);
}

// --- Controller-level arbitration -----------------------------------------

class ArbiterTest : public ::testing::Test, public test::ControllerRig {
  protected:
    ArbiterTest()
        : ControllerRig({.host_memory_bytes = 64 << 20,
                         .media_bytes = 64 << 20,
                         .config = {.max_vfs = 256}})
    {
    }

    void
    set_weight(pcie::FunctionId fn, std::uint32_t weight)
    {
        pf_write(reg::kMgmtVfId, fn);
        pf_write(reg::kMgmtQosWeight, weight);
        mgmt(MgmtCommand::kSetQosWeight);
    }

    void
    set_rate_limit(pcie::FunctionId fn, std::uint64_t bps,
                   std::uint64_t burst)
    {
        pf_write(reg::kMgmtVfId, fn);
        pf_write(reg::kMgmtRateBytesPerSec, bps);
        pf_write(reg::kMgmtRateBurstBytes, burst);
        mgmt(MgmtCommand::kSetRateLimit);
    }

    /**
     * Queues one single-chunk async read on @p driver, bumping
     * @p done on completion. Tests interleave calls across drivers so
     * no function gets a submission-window head start (submit()
     * advances the simulator by the modelled CPU cost).
     */
    void
    submit_one(drv::FunctionDriver &driver, std::uint64_t size_blocks,
               std::uint32_t i, std::shared_ptr<std::uint64_t> done)
    {
        if (buffer_ == pcie::kNullHostAddr) {
            auto buffer = host_memory_.alloc(4 * kDeviceBlockSize, 64);
            ASSERT_TRUE(buffer.is_ok());
            buffer_ = buffer.value();
        }
        ASSERT_TRUE(driver
                        .submit(Opcode::kRead,
                                (4ull * i) % (size_blocks - 4), 4,
                                buffer_,
                                [done](CompletionStatus) { ++*done; })
                        .is_ok());
    }

    pcie::HostAddr buffer_ = pcie::kNullHostAddr;
};

TEST_F(ArbiterTest, LegacyWrrForfeitsCreditOnIdle)
{
    // Legacy semantics (paper §V.A): when the turn-holder's queue
    // drains mid-turn, the remaining credit is forfeited — the figures
    // were generated with this behavior and it must not drift.
    const auto fn = create_vf({{0, 256, 1000}}, 256, 1);
    set_weight(fn, 8);
    auto driver = make_driver(fn);
    std::vector<std::byte> buf(kDeviceBlockSize);
    ASSERT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    EXPECT_EQ(controller_.arb_mode(), ArbMode::kLegacyWrr);
    EXPECT_EQ(controller_.arb_credit(), 0u);
}

TEST_F(ArbiterTest, DwrrDeficitDiesWithEmptyQueue)
{
    // Classic DRR: deficit banks only while the queue stays backlogged;
    // an emptied queue resets to zero (no credit hoarding while idle).
    pf_write(reg::kArbMode, static_cast<std::uint64_t>(ArbMode::kDwrr));
    const auto fn = create_vf({{0, 256, 1000}}, 256, 1);
    set_weight(fn, 8);
    auto driver = make_driver(fn);
    std::vector<std::byte> buf(kDeviceBlockSize);
    ASSERT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    EXPECT_EQ(controller_.arb_mode(), ArbMode::kDwrr);
    EXPECT_EQ(controller_.arb_deficit(fn), 0u);
}

TEST_F(ArbiterTest, LegacyWrrServiceFollowsWeights)
{
    const auto a = create_vf({{0, 512, 1000}}, 512, 1);
    const auto b = create_vf({{0, 512, 4000}}, 512, 2);
    set_weight(a, 3);
    set_weight(b, 1);
    auto da = make_driver(a);
    auto db = make_driver(b);
    auto done_a = std::make_shared<std::uint64_t>(0);
    auto done_b = std::make_shared<std::uint64_t>(0);
    for (std::uint32_t i = 0; i < 120; ++i) {
        submit_one(*da, 512, i, done_a);
        submit_one(*db, 512, i, done_b);
    }
    while (*done_a < 120 && sim_.step()) {
    }
    ASSERT_EQ(*done_a, 120u);
    // B should sit near 1/3 of A's service when A finishes.
    EXPECT_GE(*done_b, 25u);
    EXPECT_LE(*done_b, 70u);
}

TEST_F(ArbiterTest, DwrrConvergesToWeightedShares)
{
    pf_write(reg::kArbMode, static_cast<std::uint64_t>(ArbMode::kDwrr));
    pf_write(reg::kArbQuantum, 2);
    const auto a = create_vf({{0, 512, 1000}}, 512, 1);
    const auto b = create_vf({{0, 512, 4000}}, 512, 2);
    set_weight(a, 4);
    set_weight(b, 1);
    auto da = make_driver(a);
    auto db = make_driver(b);
    auto done_a = std::make_shared<std::uint64_t>(0);
    auto done_b = std::make_shared<std::uint64_t>(0);
    for (std::uint32_t i = 0; i < 160; ++i) {
        submit_one(*da, 512, i, done_a);
        submit_one(*db, 512, i, done_b);
    }
    while (*done_a < 160 && sim_.step()) {
    }
    ASSERT_EQ(*done_a, 160u);
    // B near 1/4 of A's service under a 4:1 weight split.
    EXPECT_GE(*done_b, 20u);
    EXPECT_LE(*done_b, 70u);
}

TEST_F(ArbiterTest, DwrrSharesHoldUnderUnequalQueueDepths)
{
    pf_write(reg::kArbMode, static_cast<std::uint64_t>(ArbMode::kDwrr));
    pf_write(reg::kArbQuantum, 2);
    const auto a = create_vf({{0, 512, 1000}}, 512, 1);
    const auto b = create_vf({{0, 512, 4000}}, 512, 2);
    set_weight(b, 4);
    auto da = make_driver(a);
    auto db = make_driver(b);
    auto done_a = std::make_shared<std::uint64_t>(0);
    auto done_b = std::make_shared<std::uint64_t>(0);
    // A (weight 1) offers a deep backlog up front; B (weight 4) holds
    // 48 outstanding in a closed loop — enough to stay backlogged
    // across its completion round trips, 5x shallower than A.
    // Weighted shares must follow the weights, not the queue depths.
    for (std::uint32_t i = 0; i < 240; ++i)
        submit_one(*da, 512, i, done_a);
    auto buffer = host_memory_.alloc(4 * kDeviceBlockSize, 64);
    ASSERT_TRUE(buffer.is_ok());
    std::function<void()> feed = [&]() {
        (void)db->submit(Opcode::kRead, 0, 4, buffer.value(),
                         [&](CompletionStatus) {
                             ++*done_b;
                             feed();
                         });
    };
    for (int slot = 0; slot < 48; ++slot)
        feed();
    while (*done_a < 120 && sim_.step()) {
    }
    ASSERT_EQ(*done_a, 120u);
    // Ideal while A completes 120 is ~480 for B (4:1). B's closed
    // loop drains briefly at round edges (deficit zeroes on idle), so
    // accept anything well above the 1:1 a depth-proportional scan
    // would give while staying below the weight-ideal ceiling.
    EXPECT_GE(*done_b, 280u);
    EXPECT_LE(*done_b, 620u);
}

TEST_F(ArbiterTest, RateLimitShapesThroughput)
{
    // 1 MB/s with a one-block burst: 32 blocks of 1 KiB take ~31 ms
    // of accrual after the burst covers the first.
    const auto fn = create_vf({{0, 256, 1000}}, 256, 1);
    set_rate_limit(fn, 1'000'000, kDeviceBlockSize);
    auto driver = make_driver(fn);
    std::vector<std::byte> buf(32 * kDeviceBlockSize);
    const sim::Time start = sim_.now();
    ASSERT_TRUE(driver->read_sync(0, 32, buf).is_ok());
    const sim::Time elapsed = sim_.now() - start;
    EXPECT_GE(elapsed, 30'000'000u);
    EXPECT_LE(elapsed, 36'000'000u);

    // Removing the limit restores the fast path.
    set_rate_limit(fn, 0, 0);
    const sim::Time start2 = sim_.now();
    ASSERT_TRUE(driver->read_sync(0, 32, buf).is_ok());
    EXPECT_LT(sim_.now() - start2, 5'000'000u);
}

TEST_F(ArbiterTest, ScanCostStaysBoundedAt256Vfs)
{
    // 255 VFs exist but only two have queued work: the per-grant scan
    // must touch O(bitmap words), not O(active_vfs). With 256 slots
    // the bitmap is 4 words; budget a generous 12 words per grant.
    for (pcie::FunctionId fn = 1; fn <= 255; ++fn)
        create_vf({{0, 16, 1000 + 16ull * fn}}, 16, fn);
    auto da = make_driver(1);
    auto db = make_driver(200);
    auto done_a = std::make_shared<std::uint64_t>(0);
    auto done_b = std::make_shared<std::uint64_t>(0);
    for (std::uint32_t i = 0; i < 40; ++i) {
        submit_one(*da, 16, i, done_a);
        submit_one(*db, 16, i, done_b);
    }
    while ((*done_a < 40 || *done_b < 40) && sim_.step()) {
    }
    ASSERT_EQ(*done_a, 40u);
    ASSERT_EQ(*done_b, 40u);
    const std::uint64_t grants = controller_.arb_grants();
    ASSERT_GT(grants, 0u);
    EXPECT_LE(controller_.arb_scan_words(), 12 * grants + 64);
}

TEST_F(ArbiterTest, ArbRegistersArePfOnly)
{
    const auto fn = create_vf({{0, 64, 1000}}, 64, 1);
    EXPECT_EQ(controller_.mmio_write(fn, reg::kArbMode, 1, 8).code(),
              util::ErrorCode::kPermissionDenied);
    EXPECT_EQ(
        controller_.mmio_read(fn, reg::kArbQuantum, 8).status().code(),
        util::ErrorCode::kPermissionDenied);
    EXPECT_EQ(controller_.mmio_read(fn, reg::kMgmtRateBytesPerSec, 8)
                  .status()
                  .code(),
              util::ErrorCode::kPermissionDenied);
}

} // namespace
} // namespace nesc::ctrl
