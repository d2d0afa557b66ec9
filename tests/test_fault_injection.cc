/**
 * @file
 * End-to-end fault-injection tests: media errors surfacing as
 * dedicated completion statuses, driver retry of transient faults,
 * extent-tree corruption contained to the offending VF, and
 * watchdog + function-level-reset recovery. Everything runs under a
 * fixed RNG seed, so the runs are deterministic.
 */
#include <gtest/gtest.h>

#include "controller_rig.h"

namespace nesc::ctrl {
namespace {

using test::ControllerRig;

// --- Media faults through the device layer --------------------------

TEST(FaultyBlockDeviceTest, DeterministicUnderFixedSeed)
{
    storage::MemBlockDevice inner(
        storage::MemBlockDeviceConfig{.capacity_bytes = 1 << 20});
    storage::FaultPlan plan;
    plan.seed = 42;
    plan.read_error_prob = 0.2;
    plan.transient_prob = 0.1;

    auto run = [&]() {
        storage::FaultyBlockDevice dev(inner, plan);
        std::vector<std::byte> buf(1024);
        std::string outcome;
        for (int i = 0; i < 64; ++i) {
            util::Status s = dev.read(0, buf);
            outcome.push_back(s.is_ok() ? '.' : '0' + static_cast<char>(
                                                           s.code()));
        }
        return outcome;
    };
    EXPECT_EQ(run(), run());
}

TEST(FaultyBlockDeviceTest, BadBlockRangeAlwaysFails)
{
    storage::MemBlockDevice inner(
        storage::MemBlockDeviceConfig{.capacity_bytes = 1 << 20});
    storage::FaultPlan plan;
    plan.bad_blocks.push_back({.first_block = 4, .nblocks = 2});
    storage::FaultyBlockDevice dev(inner, plan);

    std::vector<std::byte> buf(1024);
    EXPECT_TRUE(dev.read(0, buf).is_ok());
    EXPECT_EQ(dev.read(4 * 1024, buf).code(), util::ErrorCode::kDataLoss);
    EXPECT_EQ(dev.read(5 * 1024, buf).code(), util::ErrorCode::kDataLoss);
    EXPECT_TRUE(dev.read(6 * 1024, buf).is_ok());
    EXPECT_EQ(dev.write(4 * 1024, buf).code(), util::ErrorCode::kDataLoss);
    EXPECT_GE(dev.counters().get("bad_block_hits"), 3u);
}

TEST(FaultyBlockDeviceTest, ScheduledCorruptionFlipsOneBit)
{
    storage::MemBlockDevice inner(
        storage::MemBlockDeviceConfig{.capacity_bytes = 1 << 20});
    std::vector<std::byte> ref(1024, std::byte{0x55});
    ASSERT_TRUE(inner.write(0, ref).is_ok());

    storage::FaultPlan plan;
    plan.schedule.push_back({0, storage::InjectedFault::kCorrupt});
    storage::FaultyBlockDevice dev(inner, plan);

    std::vector<std::byte> got(1024);
    ASSERT_TRUE(dev.read(0, got).is_ok()); // silent: status is OK
    int flipped = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        auto x = std::to_integer<unsigned>(got[i] ^ ref[i]);
        while (x) {
            flipped += static_cast<int>(x & 1u);
            x >>= 1;
        }
    }
    EXPECT_EQ(flipped, 1);
    EXPECT_EQ(dev.counters().get("silent_corruptions"), 1u);

    // The next read is clean again (single-shot trigger).
    ASSERT_TRUE(dev.read(0, got).is_ok());
    EXPECT_EQ(got, ref);
}

// --- Controller status mapping + driver retry -----------------------

TEST(FaultyBlockDeviceTest, ScheduledStallDelaysOnlyThatOp)
{
    storage::MemBlockDevice inner(
        storage::MemBlockDeviceConfig{.capacity_bytes = 1 << 20,
                                      .read_bytes_per_sec = 0,
                                      .write_bytes_per_sec = 0,
                                      .access_latency = 1000});
    storage::FaultPlan plan;
    plan.stall_ns = 500'000;
    plan.schedule.push_back(
        {.op_index = 1, .kind = storage::InjectedFault::kStall});
    storage::FaultyBlockDevice dev(inner, plan);

    // Timing-op 0: clean. Timing-op 1: stalled. Timing-op 2: clean.
    EXPECT_EQ(dev.service_read(0, 0, 1024), 1000u);
    EXPECT_EQ(dev.service_write(2000, 0, 1024), 3000u + 500'000u);
    EXPECT_EQ(dev.service_read(600'000, 0, 1024), 601'000u);
    EXPECT_EQ(dev.counters().get("stall_faults"), 1u);
    EXPECT_EQ(dev.timing_ops_seen(), 3u);
}

TEST(FaultyBlockDeviceTest, RandomStallsAreDeterministicPerSeed)
{
    storage::MemBlockDevice inner(
        storage::MemBlockDeviceConfig{.capacity_bytes = 1 << 20,
                                      .read_bytes_per_sec = 0,
                                      .write_bytes_per_sec = 0,
                                      .access_latency = 0});
    storage::FaultPlan plan;
    plan.seed = 7;
    plan.stall_prob = 0.3;
    plan.stall_ns = 1000;

    auto run = [&]() {
        storage::FaultyBlockDevice dev(inner, plan);
        std::string outcome;
        for (int i = 0; i < 64; ++i)
            outcome.push_back(
                dev.service_read(0, 0, 1024) > 0 ? 'S' : '.');
        return outcome;
    };
    const std::string a = run();
    EXPECT_EQ(a, run());
    EXPECT_NE(a.find('S'), std::string::npos);
    EXPECT_NE(a.find('.'), std::string::npos);
}

TEST(FaultyBlockDeviceTest, StallStreamDoesNotPerturbFunctionalDraws)
{
    // The error pattern of a seeded plan must be bit-identical whether
    // or not stalls are enabled: stalls draw from their own RNG.
    storage::MemBlockDevice inner(
        storage::MemBlockDeviceConfig{.capacity_bytes = 1 << 20});
    storage::FaultPlan plan;
    plan.seed = 42;
    plan.read_error_prob = 0.2;
    plan.transient_prob = 0.1;

    auto run = [&](double stall_prob) {
        storage::FaultPlan p = plan;
        p.stall_prob = stall_prob;
        storage::FaultyBlockDevice dev(inner, p);
        std::vector<std::byte> buf(1024);
        std::string outcome;
        for (int i = 0; i < 64; ++i) {
            // Interleave timing ops so their draws would shift the
            // functional stream if the RNGs were shared.
            (void)dev.service_read(0, 0, 1024);
            util::Status s = dev.read(0, buf);
            outcome.push_back(s.is_ok() ? '.' : 'E');
        }
        return outcome;
    };
    EXPECT_EQ(run(0.0), run(0.9));
}

TEST(FaultInjectionTest, TransientReadErrorRetriedToSuccess)
{
    storage::FaultPlan plan;
    plan.seed = 42;
    // First media op is the VF's read: fail it transiently, once.
    plan.schedule.push_back({0, storage::InjectedFault::kTransient});
    ControllerRig h({.faults = plan});
    const auto fn = h.create_vf({{0, 32, 1000}}, 32);
    auto driver = h.make_driver(fn);

    std::vector<std::byte> data(1024, std::byte{0x77});
    ASSERT_TRUE(h.device_.write(1000 * 1024, data).is_ok());

    std::vector<std::byte> buf(1024);
    EXPECT_TRUE(driver->read_sync(0, 1, buf).is_ok());
    EXPECT_EQ(buf, data);
    EXPECT_EQ(driver->retries(), 1u);
    EXPECT_EQ(h.controller_.counters().get("media_read_errors"), 1u);
    EXPECT_EQ(h.controller_.stats(fn).media_errors, 1u);
    EXPECT_EQ(h.faulty_->counters().get("transient_faults"), 1u);
}

TEST(FaultInjectionTest, HardReadErrorSurfacesAfterRetriesExhausted)
{
    storage::FaultPlan plan;
    plan.bad_blocks.push_back({.first_block = 1000, .nblocks = 4});
    ControllerRig h({.faults = plan});
    const auto fn = h.create_vf({{0, 32, 1000}}, 32);
    auto driver = h.make_driver(fn);

    std::vector<std::byte> buf(1024);
    util::Status status = driver->read_sync(0, 1, buf);
    EXPECT_FALSE(status.is_ok());
    // Default config: 3 retries, all hitting the grown defect.
    EXPECT_EQ(driver->retries(), 3u);
    EXPECT_EQ(h.controller_.counters().get("media_read_errors"), 4u);
}

TEST(FaultInjectionTest, HardWriteErrorSurfaces)
{
    storage::FaultPlan plan;
    plan.bad_blocks.push_back({.first_block = 1002, .nblocks = 1});
    ControllerRig h({.faults = plan});
    const auto fn = h.create_vf({{0, 32, 1000}}, 32);
    auto driver = h.make_driver(fn);

    std::vector<std::byte> data(1024, std::byte{0x11});
    EXPECT_FALSE(driver->write_sync(2, 1, data).is_ok());
    EXPECT_GE(h.controller_.counters().get("media_write_errors"), 1u);
    // An unaffected block still writes fine.
    EXPECT_TRUE(driver->write_sync(0, 1, data).is_ok());
}

// --- Extent-tree corruption containment -----------------------------

TEST(FaultInjectionTest, CorruptTreeNodeFaultsOnlyOffendingVf)
{
    storage::FaultPlan plan;
    ControllerRig h({.faults = plan});
    const auto vf1 = h.create_vf({{0, 32, 1000}}, 32, 1);
    const auto vf2 = h.create_vf({{0, 32, 2000}}, 32, 2);
    auto d1 = h.make_driver(vf1);
    auto d2 = h.make_driver(vf2);

    // Poison DMA reads of VF1's root node: zero the header magic.
    const pcie::HostAddr bad_node = h.trees_[0].root();
    h.controller_.dma().set_read_fault_hook(
        [bad_node](pcie::HostAddr addr, std::vector<std::byte> &data,
                   util::Status &status) {
            (void)status;
            if (addr == bad_node && data.size() >= 2)
                data[0] = data[1] = std::byte{0};
        });

    bool vf1_completed = false;
    CompletionStatus vf1_status = CompletionStatus::kOk;
    auto buffer = h.host_memory_.alloc(1024, 64);
    ASSERT_TRUE(buffer.is_ok());
    ASSERT_TRUE(d1->submit(Opcode::kRead, 0, 1, *buffer,
                           [&](CompletionStatus s) {
                               vf1_completed = true;
                               vf1_status = s;
                           })
                    .is_ok());
    h.sim_.run_until_idle();

    // VF1 is faulted with the corruption latched; no completion.
    EXPECT_FALSE(vf1_completed);
    EXPECT_EQ(h.controller_.fault_kind(vf1), FaultKind::kTreeCorrupt);
    EXPECT_EQ(*h.controller_.mmio_read(vf1, reg::kFaultKind, 8),
              static_cast<std::uint64_t>(FaultKind::kTreeCorrupt));
    EXPECT_EQ(h.controller_.counters().get("tree_corrupt_faults"), 1u);

    // VF2's concurrent I/O is unperturbed.
    std::vector<std::byte> data(1024, std::byte{0xab}), back(1024);
    ASSERT_TRUE(d2->write_sync(0, 1, data).is_ok());
    ASSERT_TRUE(d2->read_sync(0, 1, back).is_ok());
    EXPECT_EQ(back, data);
    EXPECT_EQ(h.controller_.fault_kind(vf2), FaultKind::kNone);

    // Hypervisor-style recovery: clear the poison, hand VF1 a fresh
    // tree through the mgmt block, and rewalk — the parked read
    // completes OK.
    h.controller_.dma().set_read_fault_hook(nullptr);
    auto fresh = extent::ExtentTreeImage::build(h.host_memory_,
                                                {{0, 32, 1000}});
    ASSERT_TRUE(fresh.is_ok());
    h.set_extent_root(vf1, fresh->root());
    ASSERT_TRUE(
        h.controller_.mmio_write(vf1, reg::kRewalkTree, 1, 4).is_ok());
    h.sim_.run_until_idle();
    EXPECT_TRUE(vf1_completed);
    EXPECT_EQ(vf1_status, CompletionStatus::kOk);
}

// --- Watchdog + function-level reset --------------------------------

TEST(FaultInjectionTest, WatchdogAbortsAndFlrRecoversWedgedVf)
{
    storage::FaultPlan plan;
    ControllerRig h({.faults = plan});
    // Mapping covers blocks 0..7 of a 32-block virtual disk; there is
    // no hypervisor in this harness, so an unmapped write wedges the
    // VF until something aborts it.
    const auto fn = h.create_vf({{0, 8, 1000}}, 32);
    drv::FunctionDriverConfig dcfg;
    dcfg.request_timeout = 2'000'000; // 2 ms driver-side watchdog
    dcfg.max_flr_recoveries = 1;
    auto driver = h.make_driver(fn, dcfg);
    ASSERT_TRUE(
        driver->reg_write(reg::kWatchdogNs, 500'000).is_ok()); // 0.5 ms

    bool completed = false;
    CompletionStatus status = CompletionStatus::kOk;
    auto buffer = h.host_memory_.alloc(1024, 64);
    ASSERT_TRUE(buffer.is_ok());
    ASSERT_TRUE(driver
                    ->submit(Opcode::kWrite, 20, 1, *buffer,
                             [&](CompletionStatus s) {
                                 completed = true;
                                 status = s;
                             })
                    .is_ok());
    h.sim_.run_until_idle();

    // Sequence: device watchdog aborts the wedged write (kAborted) ->
    // driver FLR #1 + resubmit -> wedges again -> device watchdog is
    // disarmed by the reset, so the driver request timeout fires ->
    // FLR #2 -> request over its FLR budget -> surfaced kAborted.
    EXPECT_TRUE(completed);
    EXPECT_EQ(status, CompletionStatus::kAborted);
    EXPECT_EQ(h.controller_.stats(fn).fn_resets, 2u);
    EXPECT_EQ(driver->flr_recoveries(), 2u);
    EXPECT_GE(h.controller_.stats(fn).aborted_ops, 1u);
    EXPECT_EQ(h.controller_.fault_kind(fn), FaultKind::kNone);

    // The function came back clean: mapped I/O succeeds afterwards.
    std::vector<std::byte> data(1024, std::byte{0xcd}), back(1024);
    EXPECT_TRUE(driver->write_sync(0, 1, data).is_ok());
    EXPECT_TRUE(driver->read_sync(0, 1, back).is_ok());
    EXPECT_EQ(back, data);
}

} // namespace
} // namespace nesc::ctrl
