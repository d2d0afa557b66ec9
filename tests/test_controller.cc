/**
 * @file
 * Unit tests for the NeSC controller: register interface, VF
 * lifecycle, request pipeline (translation, holes, faults, rewalk,
 * write failure), the PF out-of-band channel, and isolation.
 */
#include <gtest/gtest.h>

#include "controller_rig.h"
#include "workloads/dd.h"

namespace nesc::ctrl {
namespace {

/** Bare-metal controller harness (no hypervisor software). */
class ControllerTest : public ::testing::Test, public test::ControllerRig {};

// --- Registers & lifecycle --------------------------------------------------

TEST_F(ControllerTest, PfActiveFromBoot)
{
    EXPECT_TRUE(controller_.is_active(0));
    EXPECT_FALSE(controller_.is_active(1));
    EXPECT_EQ(*controller_.mmio_read(0, reg::kDeviceSize, 8),
              device_.geometry().num_blocks());
}

TEST_F(ControllerTest, UnknownRegisterRejected)
{
    EXPECT_FALSE(controller_.mmio_read(0, 0x7000, 8).is_ok());
    EXPECT_FALSE(controller_.mmio_write(0, 0x7000, 1, 8).is_ok());
    EXPECT_FALSE(controller_.mmio_read(999, 0, 8).is_ok());
}

TEST_F(ControllerTest, MgmtRegistersArePfOnly)
{
    create_vf({{0, 100, 1000}}, 100);
    EXPECT_EQ(controller_.mmio_write(1, reg::kMgmtCommand, 1, 4).code(),
              util::ErrorCode::kPermissionDenied);
    EXPECT_EQ(controller_.mmio_read(1, reg::kMgmtStatus, 4)
                  .status()
                  .code(),
              util::ErrorCode::kPermissionDenied);
}

TEST_F(ControllerTest, MgmtStagingRegistersReadBack)
{
    // The staged CreateVf arguments are PF-readable like every other
    // management latch, and PF-only like them.
    ASSERT_TRUE(controller_.mmio_write(0, reg::kMgmtExtentRoot, 0x1234, 8)
                    .is_ok());
    ASSERT_TRUE(
        controller_.mmio_write(0, reg::kMgmtDeviceSize, 77, 8).is_ok());
    EXPECT_EQ(*controller_.mmio_read(0, reg::kMgmtExtentRoot, 8), 0x1234u);
    EXPECT_EQ(*controller_.mmio_read(0, reg::kMgmtDeviceSize, 8), 77u);
    create_vf({{0, 100, 1000}}, 100);
    EXPECT_EQ(controller_.mmio_read(1, reg::kMgmtExtentRoot, 8)
                  .status()
                  .code(),
              util::ErrorCode::kPermissionDenied);
    EXPECT_EQ(controller_.mmio_read(1, reg::kMgmtDeviceSize, 8)
                  .status()
                  .code(),
              util::ErrorCode::kPermissionDenied);
}

TEST_F(ControllerTest, VfLifecycle)
{
    const auto fn = create_vf({{0, 64, 1000}}, 64);
    EXPECT_TRUE(controller_.is_active(fn));
    EXPECT_EQ(*controller_.mmio_read(fn, reg::kDeviceSize, 8), 64u);

    // Double create of the same slot fails.
    ASSERT_TRUE(controller_.mmio_write(0, reg::kMgmtVfId, fn, 8).is_ok());
    ASSERT_TRUE(controller_
                    .mmio_write(0, reg::kMgmtCommand,
                                static_cast<std::uint64_t>(
                                    MgmtCommand::kCreateVf),
                                8)
                    .is_ok());
    EXPECT_EQ(*controller_.mmio_read(0, reg::kMgmtStatus, 4),
              static_cast<std::uint64_t>(MgmtStatus::kError));

    // Delete.
    ASSERT_TRUE(controller_
                    .mmio_write(0, reg::kMgmtCommand,
                                static_cast<std::uint64_t>(
                                    MgmtCommand::kDeleteVf),
                                8)
                    .is_ok());
    EXPECT_EQ(*controller_.mmio_read(0, reg::kMgmtStatus, 4),
              static_cast<std::uint64_t>(MgmtStatus::kOk));
    EXPECT_FALSE(controller_.is_active(fn));
}

TEST_F(ControllerTest, InvalidVfSlotRejected)
{
    ASSERT_TRUE(controller_.mmio_write(0, reg::kMgmtVfId, 0, 8).is_ok());
    ASSERT_TRUE(controller_
                    .mmio_write(0, reg::kMgmtCommand,
                                static_cast<std::uint64_t>(
                                    MgmtCommand::kCreateVf),
                                8)
                    .is_ok());
    EXPECT_EQ(*controller_.mmio_read(0, reg::kMgmtStatus, 4),
              static_cast<std::uint64_t>(MgmtStatus::kError));
    ASSERT_TRUE(
        controller_.mmio_write(0, reg::kMgmtVfId, 99, 8).is_ok());
    ASSERT_TRUE(controller_
                    .mmio_write(0, reg::kMgmtCommand,
                                static_cast<std::uint64_t>(
                                    MgmtCommand::kCreateVf),
                                8)
                    .is_ok());
    EXPECT_EQ(*controller_.mmio_read(0, reg::kMgmtStatus, 4),
              static_cast<std::uint64_t>(MgmtStatus::kError));
}

TEST_F(ControllerTest, DoorbellOnInactiveFunctionFails)
{
    EXPECT_FALSE(controller_.mmio_write(2, reg::kDoorbell, 1, 4).is_ok());
}

// --- Data path ----------------------------------------------------------------

TEST_F(ControllerTest, VfTranslatedWriteLandsAtPhysicalBlocks)
{
    // VF maps vLBA 0..63 -> pLBA 1000..1063.
    const auto fn = create_vf({{0, 64, 1000}}, 64);
    auto driver = make_driver(fn);

    std::vector<std::byte> out(4 * 1024), in(4 * 1024);
    wl::fill_pattern(1, 0, out);
    ASSERT_TRUE(driver->write_sync(8, 4, out).is_ok());

    // The data must be at physical offset 1008 KiB on the media.
    ASSERT_TRUE(device_.read(1008 * 1024, in).is_ok());
    EXPECT_EQ(out, in);
    EXPECT_EQ(controller_.stats(fn).blocks_written, 4u);
}

TEST_F(ControllerTest, VfReadSeesOnlyItsOwnMapping)
{
    // Two VFs with disjoint mappings over the same device.
    const auto fn1 = create_vf({{0, 32, 1000}}, 32, 1);
    const auto fn2 = create_vf({{0, 32, 2000}}, 32, 2);
    auto d1 = make_driver(fn1);
    auto d2 = make_driver(fn2);

    std::vector<std::byte> a(1024, std::byte{0xaa});
    std::vector<std::byte> b(1024, std::byte{0xbb});
    ASSERT_TRUE(d1->write_sync(0, 1, a).is_ok());
    ASSERT_TRUE(d2->write_sync(0, 1, b).is_ok());

    std::vector<std::byte> back(1024);
    ASSERT_TRUE(d1->read_sync(0, 1, back).is_ok());
    EXPECT_EQ(back, a);
    ASSERT_TRUE(d2->read_sync(0, 1, back).is_ok());
    EXPECT_EQ(back, b);
    // Physical placement confirms isolation.
    ASSERT_TRUE(device_.read(1000 * 1024, back).is_ok());
    EXPECT_EQ(back, a);
    ASSERT_TRUE(device_.read(2000 * 1024, back).is_ok());
    EXPECT_EQ(back, b);
}

TEST_F(ControllerTest, OutOfRangeVlbaCompletesWithError)
{
    const auto fn = create_vf({{0, 16, 1000}}, 16);
    auto driver = make_driver(fn);
    std::vector<std::byte> buf(1024);
    auto status = driver->read_sync(16, 1, buf); // vLBA == size
    EXPECT_FALSE(status.is_ok());
}

TEST_F(ControllerTest, HoleReadReturnsZeros)
{
    // Mapping covers blocks 0..7 only; device size is 32.
    const auto fn = create_vf({{0, 8, 1000}}, 32);
    auto driver = make_driver(fn);
    std::vector<std::byte> buf(1024, std::byte{0xff});
    ASSERT_TRUE(driver->read_sync(20, 1, buf).is_ok());
    for (std::byte b : buf)
        EXPECT_EQ(b, std::byte{0});
    EXPECT_EQ(controller_.stats(fn).holes_zero_filled, 1u);
}

TEST_F(ControllerTest, WriteMissRaisesFaultAndStalls)
{
    const auto fn = create_vf({{0, 8, 1000}}, 32);
    auto driver = make_driver(fn);

    bool completed = false;
    auto buffer = host_memory_.alloc(1024, 64);
    ASSERT_TRUE(buffer.is_ok());
    ASSERT_TRUE(driver
                    ->submit(Opcode::kWrite, 20, 1, *buffer,
                             [&](CompletionStatus) { completed = true; })
                    .is_ok());
    sim_.run_until_idle();

    // No hypervisor handler is installed in this harness: the VF must
    // be stalled with the fault latched in the registers.
    EXPECT_FALSE(completed);
    EXPECT_EQ(controller_.fault_kind(fn), FaultKind::kWriteMiss);
    EXPECT_EQ(*controller_.mmio_read(fn, reg::kMissAddress, 8),
              20u * kDeviceBlockSize);
    EXPECT_EQ(*controller_.mmio_read(fn, reg::kMissSize, 4),
              kDeviceBlockSize);

    // Service the fault by hand: extend the mapping, repoint the root
    // through the PF mgmt block, and rewalk.
    auto image = extent::ExtentTreeImage::build(
        host_memory_, {{0, 8, 1000}, {20, 1, 3000}});
    ASSERT_TRUE(image.is_ok());
    set_extent_root(fn, image->root());
    ASSERT_TRUE(
        controller_.mmio_write(fn, reg::kRewalkTree, 1, 4).is_ok());
    sim_.run_until_idle();
    EXPECT_TRUE(completed);
    EXPECT_EQ(controller_.fault_kind(fn), FaultKind::kNone);
    EXPECT_EQ(*controller_.mmio_read(fn, reg::kMissSize, 4), 0u);
}

TEST_F(ControllerTest, PrunedSubtreeFaultsOnRead)
{
    extent::ExtentList extents;
    for (std::uint64_t i = 0; i < 64; ++i)
        extents.push_back(extent::Extent{i, 1, 1000 + i * 2});
    auto image_or = extent::ExtentTreeImage::build(
        host_memory_, extents, extent::TreeConfig{.fanout = 4});
    ASSERT_TRUE(image_or.is_ok());
    trees_.push_back(std::move(image_or).value());
    extent::ExtentTreeImage &image = trees_.back();
    ASSERT_TRUE(image.prune_range(16, 16).is_ok());

    create_vf_at_root(image.root(), 64, 1);
    auto driver = make_driver(1);

    bool completed = false;
    auto buffer = host_memory_.alloc(1024, 64);
    ASSERT_TRUE(buffer.is_ok());
    ASSERT_TRUE(driver
                    ->submit(Opcode::kRead, 20, 1, *buffer,
                             [&](CompletionStatus) { completed = true; })
                    .is_ok());
    sim_.run_until_idle();
    EXPECT_FALSE(completed);
    EXPECT_EQ(controller_.fault_kind(1), FaultKind::kPruned);
    EXPECT_EQ(controller_.counters().get("prune_faults"), 1u);
}

TEST_F(ControllerTest, FailMissCompletesStalledWritesWithError)
{
    const auto fn = create_vf({{0, 8, 1000}}, 32);
    auto driver = make_driver(fn);
    CompletionStatus status = CompletionStatus::kOk;
    bool completed = false;
    auto buffer = host_memory_.alloc(1024, 64);
    ASSERT_TRUE(buffer.is_ok());
    ASSERT_TRUE(driver
                    ->submit(Opcode::kWrite, 20, 1, *buffer,
                             [&](CompletionStatus s) {
                                 completed = true;
                                 status = s;
                             })
                    .is_ok());
    sim_.run_until_idle();
    ASSERT_FALSE(completed);

    // Hypervisor cannot allocate: fail the miss (Fig. 5b error leg).
    pf_write(reg::kMgmtVfId, fn);
    mgmt(MgmtCommand::kFailMiss);
    sim_.run_until_idle();
    EXPECT_TRUE(completed);
    EXPECT_EQ(status, CompletionStatus::kWriteFailed);
    EXPECT_EQ(controller_.counters().get("write_failures"), 1u);
}

TEST_F(ControllerTest, OobChannelBypassesStalledVf)
{
    // Stall VF 1 on a write miss, then verify the PF still serves I/O
    // (the out-of-band channel of §V.A).
    const auto fn = create_vf({{0, 8, 1000}}, 32);
    auto vf_driver = make_driver(fn);
    auto buffer = host_memory_.alloc(1024, 64);
    ASSERT_TRUE(buffer.is_ok());
    ASSERT_TRUE(vf_driver
                    ->submit(Opcode::kWrite, 20, 1, *buffer,
                             [](CompletionStatus) {})
                    .is_ok());
    sim_.run_until_idle();
    ASSERT_EQ(controller_.fault_kind(fn), FaultKind::kWriteMiss);

    auto pf_driver = make_driver(0);
    std::vector<std::byte> data(1024, std::byte{0x3c});
    ASSERT_TRUE(pf_driver->write_sync(500, 1, data).is_ok());
    std::vector<std::byte> back(1024);
    ASSERT_TRUE(pf_driver->read_sync(500, 1, back).is_ok());
    EXPECT_EQ(back, data);
    EXPECT_GT(controller_.counters().get("oob_requests"), 0u);
}

TEST_F(ControllerTest, BtlbCachesAcrossRequests)
{
    const auto fn = create_vf({{0, 64, 1000}}, 64);
    auto driver = make_driver(fn);
    std::vector<std::byte> buf(1024);
    ASSERT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    const auto misses_after_first = controller_.btlb().misses();
    ASSERT_TRUE(driver->read_sync(1, 1, buf).is_ok());
    ASSERT_TRUE(driver->read_sync(63, 1, buf).is_ok());
    EXPECT_EQ(controller_.btlb().misses(), misses_after_first);
    EXPECT_GE(controller_.btlb().hits(), 2u);
}

TEST_F(ControllerTest, MgmtBtlbFlush)
{
    const auto fn = create_vf({{0, 64, 1000}}, 64);
    auto driver = make_driver(fn);
    std::vector<std::byte> buf(1024);
    ASSERT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    EXPECT_GT(controller_.btlb().size(), 0u);
    mgmt(MgmtCommand::kFlushBtlb);
    EXPECT_EQ(controller_.btlb().size(), 0u);
}

TEST_F(ControllerTest, DeleteBusyVfRefused)
{
    const auto fn = create_vf({{0, 8, 1000}}, 32);
    auto driver = make_driver(fn);
    auto buffer = host_memory_.alloc(1024, 64);
    ASSERT_TRUE(buffer.is_ok());
    // Stall the VF so it stays busy.
    ASSERT_TRUE(driver
                    ->submit(Opcode::kWrite, 20, 1, *buffer,
                             [](CompletionStatus) {})
                    .is_ok());
    sim_.run_until_idle();
    pf_write(reg::kMgmtVfId, fn);
    mgmt(MgmtCommand::kDeleteVf, MgmtStatus::kError);
}

TEST_F(ControllerTest, VfExtentRootWriteDenied)
{
    // Isolation: a guest must not be able to repoint its own extent
    // tree at a self-crafted mapping covering other VFs' blocks.
    const auto fn = create_vf({{0, 8, 1000}}, 32);
    const std::uint64_t root =
        *controller_.mmio_read(fn, reg::kExtentTreeRoot, 8);
    EXPECT_EQ(controller_.mmio_write(fn, reg::kExtentTreeRoot, 0xdead00, 8)
                  .code(),
              util::ErrorCode::kPermissionDenied);
    EXPECT_EQ(*controller_.mmio_read(fn, reg::kExtentTreeRoot, 8), root);

    // The sanctioned path — PF mgmt kSetExtentRoot — does work.
    auto image = extent::ExtentTreeImage::build(host_memory_,
                                                {{0, 8, 2000}});
    ASSERT_TRUE(image.is_ok());
    set_extent_root(fn, image->root());
    EXPECT_EQ(*controller_.mmio_read(fn, reg::kExtentTreeRoot, 8),
              image->root());
}

TEST_F(ControllerTest, DeleteVfWithPendingFetchRefused)
{
    // A doorbell whose fetch has not landed yet must also count as
    // busy: deleting then would strand the command with no completion.
    const auto fn = create_vf({{0, 8, 1000}}, 8);
    auto driver = make_driver(fn);
    auto buffer = host_memory_.alloc(1024, 64);
    ASSERT_TRUE(buffer.is_ok());
    bool completed = false;
    ASSERT_TRUE(driver
                    ->submit(Opcode::kRead, 0, 1, *buffer,
                             [&](CompletionStatus) { completed = true; })
                    .is_ok());
    // Doorbell rung, fetch still in flight (doorbell_latency pending).
    pf_write(reg::kMgmtVfId, fn);
    mgmt(MgmtCommand::kDeleteVf, MgmtStatus::kError);

    sim_.run_until_idle();
    EXPECT_TRUE(completed);
    // Quiescent now: the delete goes through.
    mgmt(MgmtCommand::kDeleteVf);
}

TEST_F(ControllerTest, FailMissFailsWritesAndResumesReads)
{
    // Park two unmapped writes and one mapped read behind the fault,
    // then FailMiss: the writes complete kWriteFailed, the read is
    // requeued and completes kOk, and the VF keeps working.
    const auto fn = create_vf({{0, 8, 1000}}, 32);
    auto driver = make_driver(fn);
    auto buffer = host_memory_.alloc(4 * 1024, 64);
    ASSERT_TRUE(buffer.is_ok());

    // Back-to-back: the two unmapped writes occupy both walkers; the
    // read arrives while they are busy, so when the first write
    // faults the read is parked in the stalled queue behind it.
    CompletionStatus w1 = CompletionStatus::kOk, w2 = w1, r1 = w1;
    bool w1_done = false, w2_done = false, r1_done = false;
    ASSERT_TRUE(driver
                    ->submit(Opcode::kWrite, 20, 1, *buffer,
                             [&](CompletionStatus s) {
                                 w1 = s;
                                 w1_done = true;
                             })
                    .is_ok());
    ASSERT_TRUE(driver
                    ->submit(Opcode::kWrite, 21, 1, *buffer,
                             [&](CompletionStatus s) {
                                 w2 = s;
                                 w2_done = true;
                             })
                    .is_ok());
    ASSERT_TRUE(driver
                    ->submit(Opcode::kRead, 0, 1, *buffer,
                             [&](CompletionStatus s) {
                                 r1 = s;
                                 r1_done = true;
                             })
                    .is_ok());
    sim_.run_until_idle();
    ASSERT_EQ(controller_.fault_kind(fn), FaultKind::kWriteMiss);
    ASSERT_FALSE(w1_done);
    ASSERT_FALSE(w2_done);
    ASSERT_FALSE(r1_done);

    pf_write(reg::kMgmtVfId, fn);
    mgmt(MgmtCommand::kFailMiss);
    sim_.run_until_idle();
    EXPECT_TRUE(w1_done && w2_done && r1_done);
    EXPECT_EQ(w1, CompletionStatus::kWriteFailed);
    EXPECT_EQ(w2, CompletionStatus::kWriteFailed);
    EXPECT_EQ(r1, CompletionStatus::kOk);
    EXPECT_EQ(controller_.fault_kind(fn), FaultKind::kNone);

    // The VF resumed cleanly: a mapped write goes through.
    std::vector<std::byte> data(1024, std::byte{0x5a});
    EXPECT_TRUE(driver->write_sync(0, 1, data).is_ok());
}

TEST_F(ControllerTest, QuiescentReflectsPipelineState)
{
    EXPECT_TRUE(controller_.quiescent());
    const auto fn = create_vf({{0, 8, 1000}}, 8);
    auto driver = make_driver(fn);
    std::vector<std::byte> buf(1024);
    ASSERT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    sim_.run_until_idle();
    EXPECT_TRUE(controller_.quiescent());
}

TEST_F(ControllerTest, LargeCommandSplitIntoDeviceBlocks)
{
    const auto fn = create_vf({{0, 256, 1000}}, 256);
    auto driver = make_driver(fn);
    std::vector<std::byte> out(64 * 1024), in(64 * 1024);
    wl::fill_pattern(3, 0, out);
    ASSERT_TRUE(driver->write_sync(0, 64, out).is_ok());
    ASSERT_TRUE(driver->read_sync(0, 64, in).is_ok());
    EXPECT_EQ(out, in);
    // 64 blocks in 4-block driver chunks => 16 commands.
    EXPECT_EQ(controller_.stats(fn).commands, 32u); // writes + reads
    EXPECT_EQ(controller_.stats(fn).blocks_written, 64u);
    EXPECT_EQ(controller_.stats(fn).blocks_read, 64u);
}

TEST_F(ControllerTest, HugeTimerPeriodsDoNotStarveIo)
{
    // A ~0 window or sampler period parks the weak tick at the end of
    // time. A period that wrapped to "now" would re-arm the tick at the
    // same instant forever, and the clock could never reach the I/O.
    const auto fn = create_vf({{0, 8, 1000}}, 8);
    auto driver = make_driver(fn);
    bool completed = false;
    auto buffer = host_memory_.alloc(1024, 64);
    ASSERT_TRUE(buffer.is_ok());
    ASSERT_TRUE(driver
                    ->submit(Opcode::kRead, 0, 1, *buffer,
                             [&](CompletionStatus s) {
                                 EXPECT_EQ(s, CompletionStatus::kOk);
                                 completed = true;
                             })
                    .is_ok());
    // Armed while the read is in flight; the register writes take no
    // simulated time, so nothing runs the clock before the drain.
    ASSERT_TRUE(
        controller_.mmio_write(0, reg::kObsWindowNs, ~0ULL, 8).is_ok());
    ASSERT_TRUE(controller_.mmio_write(0, reg::kSamplerIntervalNs, ~0ULL, 8)
                    .is_ok());
    // Bounded, so a regression fails here instead of hanging.
    for (int i = 0; i < 100'000 && !sim_.idle(); ++i)
        sim_.step();
    ASSERT_TRUE(sim_.idle());
    sim_.run_until_idle();
    EXPECT_TRUE(completed);
    EXPECT_EQ(sim_.weak_pending(), 2u); // both ticks still armed
}

} // namespace
} // namespace nesc::ctrl
