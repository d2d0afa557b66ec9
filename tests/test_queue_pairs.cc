/**
 * @file
 * Queue-pair plane tests: the kQp* admin block (create/delete, quota
 * enforcement, PF-programmed quotas), the per-queue doorbell aperture
 * (dead-doorbell accounting), multi-queue data-path integrity, and
 * teardown paths — delete with in-flight commands, function-level
 * reset, quarantine, and VF delete with multiple live queues.
 */
#include <gtest/gtest.h>

#include "controller_rig.h"
#include "workloads/dd.h"

namespace nesc::ctrl {
namespace {

class QueuePairTest : public ::testing::Test, public test::ControllerRig {
  protected:
    void
    set_qp_quota(pcie::FunctionId fn, std::uint32_t quota,
                 MgmtStatus expect = MgmtStatus::kOk)
    {
        pf_write(reg::kMgmtVfId, fn);
        pf_write(reg::kMgmtQpQuota, quota);
        mgmt(MgmtCommand::kSetQpQuota, expect);
    }

    /** Runs the admin create/delete sequence for @p qid on @p fn. */
    MgmtStatus
    qp_admin(pcie::FunctionId fn, std::uint64_t qid, QpCommand cmd,
             pcie::HostAddr sq = pcie::kNullHostAddr,
             pcie::HostAddr cq = pcie::kNullHostAddr)
    {
        EXPECT_TRUE(
            controller_.mmio_write(fn, reg::kQpSelect, qid, 8).is_ok());
        if (cmd == QpCommand::kCreate) {
            EXPECT_TRUE(
                controller_.mmio_write(fn, reg::kQpSqBase, sq, 8).is_ok());
            EXPECT_TRUE(
                controller_.mmio_write(fn, reg::kQpCqBase, cq, 8).is_ok());
        }
        EXPECT_TRUE(controller_
                        .mmio_write(fn, reg::kQpCommand,
                                    static_cast<std::uint64_t>(cmd), 8)
                        .is_ok());
        return static_cast<MgmtStatus>(
            *controller_.mmio_read(fn, reg::kQpStatus, 8));
    }
};

// --- Admin block -----------------------------------------------------------

TEST_F(QueuePairTest, EveryFunctionBootsWithPairZero)
{
    EXPECT_EQ(controller_.queue_pair_count(0), 1u);
    const auto fn = create_vf({{0, 64, 1000}}, 64);
    EXPECT_EQ(controller_.queue_pair_count(fn), 1u);
    EXPECT_EQ(*controller_.mmio_read(fn, reg::kQpCount, 8), 1u);
    EXPECT_EQ(*controller_.mmio_read(fn, reg::kQpQuota, 8), 1u);
}

TEST_F(QueuePairTest, CreateBeyondQuotaBounces)
{
    const auto fn = create_vf({{0, 64, 1000}}, 64);
    auto mem = host_memory_.alloc(1 << 16, 64);
    ASSERT_TRUE(mem.is_ok());
    auto sq = pcie::HostRing::create(host_memory_, mem.value(), 16,
                                     sizeof(CommandRecord));
    auto cq = pcie::HostRing::create(host_memory_, mem.value() + 32768,
                                     16, sizeof(CompletionRecord));
    ASSERT_TRUE(sq.is_ok() && cq.is_ok());
    // Reset quota is 1: pair 1 must bounce until the PF raises it.
    EXPECT_EQ(qp_admin(fn, 1, QpCommand::kCreate, mem.value(),
                       mem.value() + 32768),
              MgmtStatus::kError);
    set_qp_quota(fn, 2);
    EXPECT_EQ(*controller_.mmio_read(fn, reg::kQpQuota, 8), 2u);
    EXPECT_EQ(qp_admin(fn, 1, QpCommand::kCreate, mem.value(),
                       mem.value() + 32768),
              MgmtStatus::kOk);
    EXPECT_EQ(controller_.queue_pair_count(fn), 2u);
    // Same qid twice, qid 0, and out-of-range qids all bounce.
    EXPECT_EQ(qp_admin(fn, 1, QpCommand::kCreate, mem.value(),
                       mem.value() + 32768),
              MgmtStatus::kError);
    EXPECT_EQ(qp_admin(fn, 0, QpCommand::kCreate, mem.value(),
                       mem.value() + 32768),
              MgmtStatus::kError);
    EXPECT_EQ(qp_admin(fn, kMaxQueuePairs, QpCommand::kCreate,
                       mem.value(), mem.value() + 32768),
              MgmtStatus::kError);
    // Deleting pair 0 bounces; deleting pair 1 works and is final.
    EXPECT_EQ(qp_admin(fn, 0, QpCommand::kDelete), MgmtStatus::kError);
    EXPECT_EQ(qp_admin(fn, 1, QpCommand::kDelete), MgmtStatus::kOk);
    EXPECT_EQ(qp_admin(fn, 1, QpCommand::kDelete), MgmtStatus::kError);
    EXPECT_EQ(controller_.queue_pair_count(fn), 1u);
}

TEST_F(QueuePairTest, QuotaValidationAndPfOnly)
{
    const auto fn = create_vf({{0, 64, 1000}}, 64);
    set_qp_quota(fn, 0, MgmtStatus::kError);
    set_qp_quota(fn, kMaxQueuePairs + 1, MgmtStatus::kError);
    set_qp_quota(fn, kMaxQueuePairs);
    // The staging register itself is PF-only.
    EXPECT_EQ(
        controller_.mmio_write(fn, reg::kMgmtQpQuota, 4, 8).code(),
        util::ErrorCode::kPermissionDenied);
}

TEST_F(QueuePairTest, DeadDoorbellIsSwallowedAndCounted)
{
    const auto fn = create_vf({{0, 64, 1000}}, 64);
    // Posted writes to doorbells of absent pairs are dropped, counted,
    // and never fault the function.
    EXPECT_TRUE(controller_
                    .mmio_write(fn, reg::kQpDoorbell0 + 8 * 3, 1, 8)
                    .is_ok());
    EXPECT_TRUE(controller_
                    .mmio_write(fn, reg::kQpDoorbell0 + 8 * 3, 1, 8)
                    .is_ok());
    EXPECT_EQ(controller_.stats(fn).dead_doorbells, 2u);
    EXPECT_TRUE(controller_.is_active(fn));
    EXPECT_EQ(controller_.stats(fn).quarantines, 0u);
}

// --- Data path -------------------------------------------------------------

TEST_F(QueuePairTest, MultiQueueRoundTripStripesAcrossPairs)
{
    const auto fn = create_vf({{0, 256, 1000}}, 256);
    set_qp_quota(fn, 4);
    auto driver = make_driver(fn, {.queue_pairs = 4});
    EXPECT_EQ(controller_.queue_pair_count(fn), 4u);

    std::vector<std::byte> out(16 * kDeviceBlockSize);
    std::vector<std::byte> in(16 * kDeviceBlockSize);
    wl::fill_pattern(7, 0, out);
    ASSERT_TRUE(driver->write_sync(0, 16, out).is_ok());
    ASSERT_TRUE(driver->read_sync(0, 16, in).is_ok());
    EXPECT_EQ(out, in);

    // 16 blocks = 4 chunks per direction, striped one per pair.
    for (std::uint16_t qid = 0; qid < 4; ++qid) {
        const QueuePairStats *stats =
            controller_.queue_pair_stats(fn, qid);
        ASSERT_NE(stats, nullptr);
        EXPECT_EQ(stats->commands, 2u) << "qid " << qid;
        EXPECT_EQ(stats->completions, 2u) << "qid " << qid;
        EXPECT_GE(stats->doorbells, 2u) << "qid " << qid;
    }
    EXPECT_EQ(controller_.stats(fn).blocks_written, 16u);
    EXPECT_EQ(controller_.stats(fn).blocks_read, 16u);
}

TEST_F(QueuePairTest, SingleQueueDriverUnchanged)
{
    const auto fn = create_vf({{0, 256, 1000}}, 256);
    auto driver = make_driver(fn);
    std::vector<std::byte> out(8 * kDeviceBlockSize);
    std::vector<std::byte> in(8 * kDeviceBlockSize);
    wl::fill_pattern(3, 0, out);
    ASSERT_TRUE(driver->write_sync(0, 8, out).is_ok());
    ASSERT_TRUE(driver->read_sync(0, 8, in).is_ok());
    EXPECT_EQ(out, in);
    const QueuePairStats *stats = controller_.queue_pair_stats(fn, 0);
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->commands, 4u);
    EXPECT_EQ(controller_.queue_pair_stats(fn, 1), nullptr);
}

// --- Teardown --------------------------------------------------------------

TEST_F(QueuePairTest, DeleteQueueAbortsItsInflightCommands)
{
    const auto fn = create_vf({{0, 256, 1000}}, 256);
    set_qp_quota(fn, 2);
    auto driver = make_driver(fn, {.queue_pairs = 2});

    // Queue async work striped across both pairs, then delete pair 1
    // before the device drains it.
    auto buffer = host_memory_.alloc(4 * kDeviceBlockSize, 64);
    ASSERT_TRUE(buffer.is_ok());
    std::uint64_t completions = 0;
    for (std::uint32_t i = 0; i < 8; ++i) {
        ASSERT_TRUE(driver
                        ->submit(Opcode::kRead, 4ull * i, 4,
                                 buffer.value(),
                                 [&completions](CompletionStatus) {
                                     ++completions;
                                 })
                        .is_ok());
    }
    EXPECT_EQ(qp_admin(fn, 1, QpCommand::kDelete), MgmtStatus::kOk);
    EXPECT_EQ(controller_.queue_pair_count(fn), 1u);
    while (sim_.step()) {
    }
    // Pair 0's chunks complete; pair 1's died with the queue (their
    // kAborted completions had nowhere to land).
    EXPECT_GT(controller_.stats(fn).aborted_ops, 0u);
    EXPECT_LT(completions, 8u);
    EXPECT_GT(completions, 0u);
}

TEST_F(QueuePairTest, FnResetTearsDownExtraPairs)
{
    const auto fn = create_vf({{0, 256, 1000}}, 256);
    set_qp_quota(fn, 4);
    auto driver = make_driver(fn, {.queue_pairs = 4});
    EXPECT_EQ(controller_.queue_pair_count(fn), 4u);
    ASSERT_TRUE(
        controller_.mmio_write(fn, reg::kFnReset, 1, 8).is_ok());
    // Extra pairs are gone, pair 0 survives (cleared), quota survives.
    EXPECT_EQ(controller_.queue_pair_count(fn), 1u);
    EXPECT_EQ(*controller_.mmio_read(fn, reg::kQpQuota, 8), 4u);
    // Doorbells on the torn-down pairs are now dead doorbells.
    ASSERT_TRUE(controller_
                    .mmio_write(fn, reg::kQpDoorbell0 + 8 * 2, 1, 8)
                    .is_ok());
    EXPECT_EQ(controller_.stats(fn).dead_doorbells, 1u);
}

TEST_F(QueuePairTest, DeleteVfWithLiveQueues)
{
    const auto fn = create_vf({{0, 256, 1000}}, 256);
    set_qp_quota(fn, 4);
    auto driver = make_driver(fn, {.queue_pairs = 4});
    EXPECT_EQ(controller_.queue_pair_count(fn), 4u);
    pf_write(reg::kMgmtVfId, fn);
    mgmt(MgmtCommand::kDeleteVf);
    EXPECT_FALSE(controller_.is_active(fn));
    EXPECT_EQ(controller_.queue_pair_count(fn), 0u);
    // Doorbells on a dead function are rejected outright (not merely
    // swallowed): the function no longer decodes.
    EXPECT_FALSE(
        controller_.mmio_write(fn, reg::kQpDoorbell0 + 8, 1, 8).is_ok());
}

TEST_F(QueuePairTest, QuarantineDrainsAllPairs)
{
    const auto fn = create_vf({{0, 256, 1000}}, 256);
    set_qp_quota(fn, 2);
    auto driver = make_driver(fn, {.queue_pairs = 2});

    // Trash pair 0's SQ header, then storm the doorbell past the
    // quarantine threshold. The quarantine must drain *both* pairs'
    // staging and stay latched for later doorbells on either pair.
    const std::uint64_t sq_base =
        *controller_.mmio_read(fn, reg::kCmdRingBase, 8);
    auto header = host_memory_.read_pod<pcie::HostRing::Header>(sq_base);
    ASSERT_TRUE(header.is_ok());
    pcie::HostRing::Header h = header.value();
    h.magic = 0xdeadbeef;
    ASSERT_TRUE(host_memory_.write_pod(sq_base, h).is_ok());
    for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(
            controller_.mmio_write(fn, reg::kDoorbell, 1, 8).is_ok());
        while (sim_.step()) {
        }
        if (controller_.quarantined(fn))
            break;
    }
    ASSERT_TRUE(controller_.quarantined(fn));
    EXPECT_EQ(controller_.queue_pair_count(fn), 2u);
    // Doorbells on both the legacy alias and pair 1's slot are ignored.
    ASSERT_TRUE(
        controller_.mmio_write(fn, reg::kDoorbell, 1, 8).is_ok());
    ASSERT_TRUE(controller_
                    .mmio_write(fn, reg::kQpDoorbell0 + 8, 1, 8)
                    .is_ok());
    EXPECT_GE(controller_.stats(fn).doorbells_ignored, 2u);
}

// --- Register surface ------------------------------------------------------

TEST_F(QueuePairTest, LegacyRegistersAliasPairZero)
{
    const auto fn = create_vf({{0, 64, 1000}}, 64);
    auto driver = make_driver(fn);
    const std::uint64_t legacy_sq =
        *controller_.mmio_read(fn, reg::kCmdRingBase, 8);
    ASSERT_TRUE(
        controller_.mmio_write(fn, reg::kQpSelect, 0, 8).is_ok());
    EXPECT_EQ(*controller_.mmio_read(fn, reg::kQpSqBase, 8), legacy_sq);
    const std::uint64_t legacy_cq =
        *controller_.mmio_read(fn, reg::kCompRingBase, 8);
    EXPECT_EQ(*controller_.mmio_read(fn, reg::kQpCqBase, 8), legacy_cq);
}

TEST_F(QueuePairTest, QpReadsOfAbsentPairMasterAbort)
{
    const auto fn = create_vf({{0, 64, 1000}}, 64);
    ASSERT_TRUE(
        controller_.mmio_write(fn, reg::kQpSelect, 5, 8).is_ok());
    EXPECT_EQ(*controller_.mmio_read(fn, reg::kQpSqBase, 8),
              ~std::uint64_t{0});
    EXPECT_EQ(*controller_.mmio_read(fn, reg::kQpCqBase, 8),
              ~std::uint64_t{0});
}

} // namespace
} // namespace nesc::ctrl
