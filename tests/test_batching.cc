/**
 * @file
 * Batching-interaction tests: the kFetchBatch descriptor-drain cap and
 * the kCompletionBatch coalesced completion flush, each against the
 * containment machinery (ring corruption, quarantine, watchdog aborts).
 * The contract under test: batching changes event granularity and MSI
 * counts, never outcomes — and a batched drain must stop dead at ring
 * corruption or quarantine exactly like the monolithic drain does.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "controller_rig.h"

namespace nesc::ctrl {
namespace {

using test::ControllerRig;
using test::RawGuest;

/** 4-VF controller config with the given batching knobs. */
ControllerConfig
config_with(std::uint32_t fetch_batch = 0, bool completion_batch = false)
{
    ControllerConfig cfg;
    cfg.max_vfs = 4;
    cfg.fetch_batch = fetch_batch;
    cfg.completion_batch = completion_batch;
    return cfg;
}

/** The batching rig: 64 MiB of host memory, @p config on the device. */
test::RigOptions
rig(const ControllerConfig &config = config_with())
{
    return {.host_memory_bytes = 64 << 20, .config = config};
}

// --- Batching knob registers ----------------------------------------

TEST(BatchingRegisters, PfOnlyWithPaperDefaults)
{
    ControllerRig h(rig());
    const auto fn = h.create_vf({{0, 32, 1000}}, 32);
    // Defaults: both knobs off = paper-equivalent behavior.
    EXPECT_EQ(*h.controller_.mmio_read(0, reg::kFetchBatch, 8), 0u);
    EXPECT_EQ(*h.controller_.mmio_read(0, reg::kCompletionBatch, 8), 0u);
    // PF writes land and read back.
    h.pf_write(reg::kFetchBatch, 4);
    h.pf_write(reg::kCompletionBatch, 1);
    EXPECT_EQ(*h.controller_.mmio_read(0, reg::kFetchBatch, 8), 4u);
    EXPECT_EQ(*h.controller_.mmio_read(0, reg::kCompletionBatch, 8), 1u);
    // VF access is denied both ways.
    EXPECT_FALSE(h.controller_.mmio_read(fn, reg::kFetchBatch, 8).is_ok());
    EXPECT_FALSE(
        h.controller_.mmio_read(fn, reg::kCompletionBatch, 8).is_ok());
    EXPECT_FALSE(
        h.controller_.mmio_write(fn, reg::kFetchBatch, 2, 8).is_ok());
    EXPECT_FALSE(
        h.controller_.mmio_write(fn, reg::kCompletionBatch, 1, 8).is_ok());
    EXPECT_EQ(*h.controller_.mmio_read(0, reg::kFetchBatch, 8), 4u);
}

// --- Fetch batching -------------------------------------------------

/** Tag/status pairs of @p comps, sorted by tag, for outcome compares. */
std::vector<std::pair<std::uint64_t, std::uint32_t>>
outcomes(const std::vector<CompletionRecord> &comps)
{
    std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
    for (const CompletionRecord &c : comps)
        out.emplace_back(c.tag, c.status);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<std::uint64_t, std::uint32_t>>
run_ring_of_writes(std::uint32_t fetch_batch, std::uint64_t *events = nullptr)
{
    ControllerRig h(rig(config_with(fetch_batch)));
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);
    for (std::uint64_t i = 0; i < 12; ++i)
        g.push(g.valid_write(i % 64));
    g.doorbell();
    h.sim_.run_until_idle();
    if (events != nullptr)
        *events = h.sim_.events_executed();
    EXPECT_EQ(h.controller_.stats(fn).commands, 12u);
    return outcomes(g.drain_completions());
}

TEST(FetchBatching, CappedDrainCompletesTheWholeRing)
{
    // One doorbell, twelve descriptors: whatever the cap, every
    // command is fetched (via continuations) with identical outcomes.
    const auto unbatched = run_ring_of_writes(0);
    ASSERT_EQ(unbatched.size(), 12u);
    for (const auto &[tag, status] : unbatched)
        EXPECT_EQ(status,
                  static_cast<std::uint32_t>(CompletionStatus::kOk));
    for (std::uint32_t batch : {1u, 2u, 5u, 16u}) {
        std::uint64_t events = 0;
        EXPECT_EQ(run_ring_of_writes(batch, &events), unbatched)
            << "batch " << batch;
    }
}

TEST(FetchBatching, DoorbellDuringDrainMergesIntoContinuation)
{
    // A doorbell landing while a capped drain is in progress must not
    // spawn a second concurrent drain of the same ring.
    ControllerRig h(rig(config_with(/*fetch_batch=*/2)));
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);
    for (std::uint64_t i = 0; i < 6; ++i)
        g.push(g.valid_write(i));
    g.doorbell();
    const sim::Duration latency = h.controller_.config().doorbell_latency;
    // Push more and re-ring mid-drain (after the first fetch event).
    h.sim_.schedule_at(latency, [&]() {
        for (std::uint64_t i = 0; i < 4; ++i)
            g.push(g.valid_write(i));
        g.doorbell();
    });
    h.sim_.run_until_idle();
    EXPECT_EQ(h.controller_.stats(fn).commands, 10u);
    const auto comps = g.drain_completions();
    EXPECT_EQ(comps.size(), 10u);
    EXPECT_EQ(h.controller_.stats(fn).ring_corruptions, 0u);
}

TEST(FetchBatching, DrainStopsAtRingCorruption)
{
    // The guest rewrites the ring's device-owned head counter between
    // the first capped fetch and its continuation. The continuation
    // must drop the drain as kRingCorrupt and fetch nothing more.
    ControllerRig h(rig(config_with(/*fetch_batch=*/2)));
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);
    for (std::uint64_t i = 0; i < 8; ++i)
        g.push(g.valid_write(i));
    g.doorbell();
    const sim::Duration latency = h.controller_.config().doorbell_latency;
    h.sim_.schedule_at(latency, [&]() {
        auto header =
            *h.host_memory_.read_pod<pcie::HostRing::Header>(g.cmd_base_);
        header.head -= 1; // consumer counter rewritten by the guest
        ASSERT_TRUE(h.host_memory_.write_pod(g.cmd_base_, header).is_ok());
    });
    h.sim_.run_until_idle();
    // Exactly the first batch was fetched; the corrupt continuation
    // fetched nothing and did not reschedule itself.
    EXPECT_EQ(h.controller_.stats(fn).commands, 2u);
    EXPECT_EQ(h.controller_.stats(fn).ring_corruptions, 1u);
    const auto comps = g.drain_completions();
    EXPECT_EQ(comps.size(), 2u);
    for (const auto &c : comps)
        EXPECT_EQ(c.status,
                  static_cast<std::uint32_t>(CompletionStatus::kOk));
}

TEST(FetchBatching, QuarantinedVfContributesZeroBatchedWork)
{
    // A DMA-window violation mid-drain quarantines the VF with
    // descriptors still in the ring and a continuation's worth of
    // batch budget unspent: nothing further may be fetched, and later
    // doorbells are ignored outright.
    ControllerRig h(rig(config_with(/*fetch_batch=*/1)));
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);
    // Confine the fn: windows cover its rings and its data buffer.
    g.window_all();

    const pcie::HostAddr outside = *h.host_memory_.alloc(4096, 4096);
    g.push(g.valid_write(0));
    CommandRecord escape = g.valid_write(1);
    escape.host_buffer = outside; // sandbox escape: one-strike
    g.push(escape);
    g.push(g.valid_write(2));
    g.push(g.valid_write(3));
    g.doorbell();
    h.sim_.run_until_idle();

    EXPECT_TRUE(h.controller_.quarantined(fn));
    // Only the two descriptors up to the violation were fetched.
    EXPECT_EQ(h.controller_.stats(fn).commands, 2u);
    const auto comps = g.drain_completions();
    ASSERT_EQ(comps.size(), 2u);
    // Tag 1 aborted by quarantine teardown, tag 2 faulted.
    EXPECT_EQ(comps[0].tag, 2u);
    EXPECT_EQ(comps[0].status,
              static_cast<std::uint32_t>(CompletionStatus::kDmaFault));
    EXPECT_EQ(comps[1].tag, 1u);
    EXPECT_EQ(comps[1].status,
              static_cast<std::uint32_t>(CompletionStatus::kAborted));

    // Doorbells while quarantined fetch nothing.
    const auto ignored_before = h.controller_.stats(fn).doorbells_ignored;
    g.doorbell();
    h.sim_.run_until_idle();
    EXPECT_EQ(h.controller_.stats(fn).commands, 2u);
    EXPECT_GT(h.controller_.stats(fn).doorbells_ignored, ignored_before);
}

// --- Completion batching --------------------------------------------

TEST(CompletionBatching, SameOutcomesOneMsiPerFlush)
{
    // Identical 8-command ring with and without completion batching:
    // the completion records must match exactly; the MSI count drops
    // because one flush raises one interrupt for the window.
    auto run = [](bool completion_batch) {
        // Widen the completion window past the media's ~1us per-write
        // spacing so back-to-back completions actually share a flush.
        ControllerConfig cfg = config_with(0, completion_batch);
        cfg.completion_cost = 5000;
        ControllerRig h(rig(cfg));
        const auto fn = h.create_vf({{0, 64, 2000}}, 64);
        RawGuest g(h, fn);
        for (std::uint64_t i = 0; i < 8; ++i)
            g.push(g.valid_write(i));
        g.doorbell();
        h.sim_.run_until_idle();
        return std::make_pair(outcomes(g.drain_completions()),
                              h.irq_.raised());
    };
    const auto [plain, plain_irqs] = run(false);
    const auto [batched, batched_irqs] = run(true);
    ASSERT_EQ(plain.size(), 8u);
    EXPECT_EQ(batched, plain);
    EXPECT_LT(batched_irqs, plain_irqs);
}

TEST(CompletionBatching, DeliversWatchdogAborts)
{
    // A write into an unmapped hole parks on a fault; the command
    // watchdog aborts it. The kAborted completion must come through
    // the batched flush exactly like the unbatched path.
    ControllerRig h(rig(config_with(0, /*completion_batch=*/true)));
    const auto fn = h.create_vf({{0, 32, 2000}}, 64); // upper half holes
    RawGuest g(h, fn);
    ASSERT_TRUE(
        h.controller_.mmio_write(fn, reg::kWatchdogNs, 50'000, 8).is_ok());
    g.push(g.valid_write(/*vlba=*/40)); // hole: write-miss fault
    g.doorbell();
    h.sim_.run_until_idle();
    const auto comps = g.drain_completions();
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].tag, 1u);
    EXPECT_EQ(comps[0].status,
              static_cast<std::uint32_t>(CompletionStatus::kAborted));
    EXPECT_EQ(h.controller_.stats(fn).aborted_ops, 1u);
}

TEST(CompletionBatching, DeliversQuarantineAbortsInTagOrder)
{
    // Quarantine with several commands in flight: every pending tag
    // must surface as kAborted through the coalesced flush, in tag
    // order. The trigger is a sixth descriptor pointing outside the
    // fn's DMA windows while tags 1-5 were fetched in the same drain
    // and are still pending.
    ControllerRig h(rig(config_with(0, /*completion_batch=*/true)));
    const auto fn = h.create_vf({{0, 64, 2000}}, 64);
    RawGuest g(h, fn);
    g.window_all();

    for (std::uint64_t i = 0; i < 5; ++i)
        g.push(g.valid_write(i, /*nblocks=*/4));
    CommandRecord escape = g.valid_write(5);
    escape.host_buffer = *h.host_memory_.alloc(4096, 4096); // unwindowed
    g.push(escape);
    g.doorbell();
    h.sim_.run_until_idle();

    ASSERT_TRUE(h.controller_.quarantined(fn));
    const auto comps = g.drain_completions();
    ASSERT_EQ(comps.size(), 6u);
    // The violator faults first (enqueued before the teardown), then
    // the five pending tags abort in ascending tag order.
    EXPECT_EQ(comps[0].tag, 6u);
    EXPECT_EQ(comps[0].status,
              static_cast<std::uint32_t>(CompletionStatus::kDmaFault));
    for (std::size_t i = 1; i < comps.size(); ++i) {
        EXPECT_EQ(comps[i].tag, i) << "slot " << i;
        EXPECT_EQ(comps[i].status,
                  static_cast<std::uint32_t>(CompletionStatus::kAborted));
    }
}

} // namespace
} // namespace nesc::ctrl
