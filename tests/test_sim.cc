/**
 * @file
 * Unit tests for the discrete-event simulator and BandwidthServer:
 * event ordering, weak timers, the generational arena, and a
 * whole-controller determinism stress whose execution order is pinned
 * by tests/golden/sim_order.txt.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "drivers/function_driver.h"
#include "extent/tree_image.h"
#include "nesc/controller.h"
#include "obs/trace.h"
#include "pcie/mmio.h"
#include "sim/arena.h"
#include "sim/bandwidth_server.h"
#include "sim/simulator.h"
#include "storage/mem_block_device.h"

namespace nesc::sim {
namespace {

TEST(Simulator, StartsAtZeroAndIdle)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_TRUE(sim.idle());
    EXPECT_FALSE(sim.step());
}

TEST(Simulator, ExecutesInTimestampOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(30, [&]() { order.push_back(3); });
    sim.schedule_at(10, [&]() { order.push_back(1); });
    sim.schedule_at(20, [&]() { order.push_back(2); });
    sim.run_until_idle();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30u);

    // Two interleaved out-of-order streams merge into one timeline.
    std::vector<Time> fired;
    const Time base = sim.now();
    for (Time t : {30u, 10u, 50u})
        sim.schedule_at(base + t, [&, t]() { fired.push_back(t); });
    for (Time t : {40u, 20u, 60u})
        sim.schedule_at(base + t, [&, t]() { fired.push_back(t); });
    sim.run_until_idle();
    EXPECT_EQ(fired, (std::vector<Time>{10, 20, 30, 40, 50, 60}));
    EXPECT_EQ(sim.now(), base + 60);
}

TEST(Simulator, FifoAmongEqualTimestamps)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        sim.schedule_at(100, [&order, i]() { order.push_back(i); });
    sim.run_until_idle();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));

    // An earlier event scheduled last still runs first; the ties
    // behind it keep their scheduling order.
    order.clear();
    for (int i = 0; i < 4; ++i)
        sim.schedule_at(200, [&order, i]() { order.push_back(i); });
    sim.schedule_at(150, [&]() { order.push_back(-1); });
    sim.run_until_idle();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3}));

    // Many ties at one instant stay FIFO however the heap reshuffles.
    order.clear();
    for (int i = 0; i < 64; ++i)
        sim.schedule_at(300, [&order, i]() { order.push_back(i); });
    sim.run_until_idle();
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative)
{
    Simulator sim;
    sim.schedule_at(50, [] {});
    sim.run_until_idle();
    Time fired_at = 0;
    sim.schedule_in(25, [&]() { fired_at = sim.now(); });
    sim.run_until_idle();
    EXPECT_EQ(fired_at, 75u);
}

TEST(Simulator, PastSchedulingClampsToNow)
{
    Simulator sim;
    sim.schedule_at(100, [] {});
    sim.run_until_idle();
    bool fired = false;
    sim.schedule_at(10, [&]() { fired = true; }); // in the past
    sim.run_until_idle();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, EventsCanScheduleEvents)
{
    Simulator sim;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 10)
            sim.schedule_in(5, chain);
    };
    sim.schedule_at(0, chain);
    sim.run_until_idle();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(sim.now(), 45u);
}

TEST(Simulator, RunUntilAdvancesClockPastLastEvent)
{
    Simulator sim;
    bool fired = false;
    sim.schedule_at(10, [&]() { fired = true; });
    sim.run_until(100);
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, RunUntilDoesNotExecuteLaterEvents)
{
    Simulator sim;
    bool fired = false;
    sim.schedule_at(200, [&]() { fired = true; });
    sim.run_until(100);
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.now(), 100u);
    sim.run_until_idle();
    EXPECT_TRUE(fired);
}

TEST(Simulator, AdvanceExecutesWindowedEvents)
{
    Simulator sim;
    int count = 0;
    sim.schedule_at(5, [&]() { ++count; });
    sim.schedule_at(15, [&]() { ++count; });
    sim.advance(10);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, ReentrantSteppingFromEvent)
{
    // Drivers block synchronously by stepping the simulator from
    // within an event (e.g. fault service inside an IRQ). The engine
    // must tolerate nested step() calls.
    Simulator sim;
    bool inner_fired = false;
    bool outer_done = false;
    sim.schedule_at(10, [&]() {
        sim.schedule_in(5, [&]() { inner_fired = true; });
        while (!inner_fired)
            ASSERT_TRUE(sim.step());
        outer_done = true;
    });
    sim.run_until_idle();
    EXPECT_TRUE(inner_fired);
    EXPECT_TRUE(outer_done);
    EXPECT_EQ(sim.now(), 15u);
}

TEST(Simulator, CountsExecutedEvents)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i)
        sim.schedule_in(i, [] {});
    sim.run_until_idle();
    EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, FarEventsExecuteInGlobalTimeOrder)
{
    // Millisecond-scale timers mixed with near events run strictly by
    // timestamp, and a far event can schedule further work.
    constexpr Duration kFar = 100'000;
    Simulator sim;
    std::vector<int> order;
    sim.schedule_in(2 * kFar, [&]() { order.push_back(1); });
    sim.schedule_at(kFar / 2, [&]() { order.push_back(0); });
    sim.schedule_in(3 * kFar, [&]() {
        order.push_back(2);
        sim.schedule_in(10, [&]() { order.push_back(3); });
    });
    sim.run_until_idle();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(sim.now(), 3 * kFar + 10);
}

TEST(Simulator, TieOnWhenResolvesBySequence)
{
    Simulator sim;
    std::vector<int> order;
    const Time when = 400'000;
    // One event booked long in advance, one booked just before the
    // same instant from a near event: schedule order must win.
    sim.schedule_at(when, [&]() { order.push_back(0); });
    sim.schedule_at(when - 5, [&]() {
        sim.schedule_in(5, [&]() { order.push_back(1); });
    });
    sim.run_until_idle();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Simulator, WeakEventsDoNotKeepTheSimulationAlive)
{
    // A self-rescheduling weak timer (the telemetry-plane idiom) ticks
    // in global order while strong work remains, fires during
    // run_until(), and never makes run_until_idle() spin.
    Simulator sim;
    int ticks = 0;
    std::function<void()> tick = [&]() {
        ++ticks;
        sim.schedule_weak_in(100, tick);
    };
    sim.schedule_weak_in(100, tick);
    int work = 0;
    sim.schedule_in(250, [&]() { ++work; });
    EXPECT_FALSE(sim.idle()); // strong event pending
    sim.run_until_idle();     // runs the two ticks before t=250, stops
    EXPECT_EQ(work, 1);
    EXPECT_EQ(ticks, 2);
    EXPECT_TRUE(sim.idle()); // armed weak timer does not count
    EXPECT_EQ(sim.weak_pending(), 1u);
    sim.run_until(sim.now() + 1000); // deadline-driven runs still tick
    EXPECT_EQ(ticks, 12);
    EXPECT_TRUE(sim.idle());
}

TEST(Simulator, HugeDelaySaturatesInsteadOfWrapping)
{
    // A weak timer re-arming with a delay of ~0 must land at the end
    // of time, not wrap into the present and starve the strong event
    // behind it.
    Simulator sim;
    sim.run_until(1000);
    int ticks = 0;
    std::function<void()> tick = [&]() {
        ++ticks;
        sim.schedule_weak_in(~Duration{0}, tick);
    };
    sim.schedule_weak_in(~Duration{0}, tick);
    bool work = false;
    sim.schedule_at(2000, [&]() { work = true; });
    bool far = false;
    sim.schedule_in(~Duration{0}, [&]() { far = true; });
    // Bounded, so a regression fails here instead of hanging.
    for (int i = 0; i < 1000 && !work; ++i)
        sim.step();
    ASSERT_TRUE(work);
    EXPECT_EQ(sim.now(), 2000u);
    EXPECT_EQ(ticks, 0);
    EXPECT_FALSE(far);
    // The saturated strong event still runs, at the end of time.
    sim.run_until_idle();
    EXPECT_TRUE(far);
    EXPECT_EQ(sim.now(), kTimeMax);
}

// --- BandwidthServer ----------------------------------------------------

TEST(BandwidthServer, LatencyOnlyWhenInfinitelyFast)
{
    BandwidthServer server(0, 100);
    EXPECT_EQ(server.acquire(0, 4096), 100u);
    EXPECT_EQ(server.acquire(0, 1 << 20), 100u);
}

TEST(BandwidthServer, TransferTimeMatchesRate)
{
    BandwidthServer server(1'000'000'000, 0); // 1 GB/s
    EXPECT_EQ(server.acquire(0, 1'000'000), 1'000'000u); // 1 MB -> 1 ms
}

TEST(BandwidthServer, SerializesBackToBackTransfers)
{
    BandwidthServer server(1'000'000'000, 50);
    const Time first = server.acquire(0, 1'000'000);
    const Time second = server.acquire(0, 1'000'000);
    EXPECT_EQ(first, 1'000'000u + 50u);
    // Second transfer queues behind the first's occupancy.
    EXPECT_EQ(second, 2'000'000u + 50u);
}

TEST(BandwidthServer, IdleGapsAreNotCharged)
{
    BandwidthServer server(1'000'000'000, 0);
    (void)server.acquire(0, 1'000'000);
    // Arrives long after the first finished: no queueing.
    EXPECT_EQ(server.acquire(10'000'000, 1'000'000), 11'000'000u);
}

TEST(BandwidthServer, PeekDoesNotBook)
{
    BandwidthServer server(1'000'000'000, 0);
    const Time peeked = server.peek(0, 1'000'000);
    EXPECT_EQ(peeked, 1'000'000u);
    EXPECT_EQ(server.busy_until(), 0u);
    EXPECT_EQ(server.acquire(0, 1'000'000), peeked);
}

TEST(BandwidthServer, TracksTotals)
{
    BandwidthServer server(1'000'000, 0);
    (void)server.acquire(0, 100);
    (void)server.acquire(0, 200);
    EXPECT_EQ(server.total_bytes(), 300u);
    EXPECT_EQ(server.total_transfers(), 2u);
    server.reset();
    EXPECT_EQ(server.total_bytes(), 0u);
    EXPECT_EQ(server.busy_until(), 0u);
}

TEST(Callback, MoveOnlyCapturesWork)
{
    // The event-queue callback must carry move-only state (the DMA
    // layer captures buffers); std::function could not.
    auto data = std::make_unique<int>(41);
    int result = 0;
    Callback cb([d = std::move(data), &result]() { result = *d + 1; });
    ASSERT_TRUE(static_cast<bool>(cb));
    cb();
    EXPECT_EQ(result, 42);
}

TEST(Callback, LargeCaptureFallsBackToHeap)
{
    // A capture bigger than the inline buffer still works (heap path).
    struct Big {
        std::byte bytes[256]{};
    } big;
    big.bytes[0] = std::byte{7};
    int got = 0;
    Callback cb([big, &got]() { got = static_cast<int>(big.bytes[0]); });
    Callback moved = std::move(cb);
    moved();
    EXPECT_EQ(got, 7);
}

TEST(Callback, MoveTransfersOwnership)
{
    int calls = 0;
    Callback a([&calls]() { ++calls; });
    Callback b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    b();
    b = Callback([&calls]() { calls += 10; });
    b();
    EXPECT_EQ(calls, 11);
}

TEST(Simulator, ReserveAndEventAccounting)
{
    Simulator sim;
    sim.reserve(10'000);
    const std::uint64_t before = Simulator::total_events_executed();
    const std::uint64_t executed_before = sim.events_executed();
    for (int i = 0; i < 100; ++i)
        sim.schedule_at(i, []() {});
    sim.run_until_idle();
    EXPECT_EQ(sim.events_executed() - executed_before, 100u);
    EXPECT_GE(Simulator::total_events_executed() - before, 100u);
}

// --- Generational arena -------------------------------------------------

TEST(Arena, AcquireGetReleaseRoundTrip)
{
    Arena<int> arena;
    const auto h = arena.acquire();
    ASSERT_NE(arena.get(h), nullptr);
    *arena.get(h) = 42;
    EXPECT_EQ(arena.live(), 1u);
    arena.release(h);
    EXPECT_EQ(arena.live(), 0u);
    EXPECT_EQ(arena.get(h), nullptr); // stale handle: teardown idiom
}

TEST(Arena, ReuseNeverAliasesLiveCommands)
{
    // The slot is recycled, but a handle from the previous occupancy
    // must never resolve to the new occupant.
    Arena<int> arena;
    const auto old = arena.acquire();
    *arena.get(old) = 1;
    arena.release(old);
    const auto fresh = arena.acquire();
    ASSERT_EQ(fresh.index, old.index); // same slot reused...
    EXPECT_NE(fresh.generation, old.generation);
    *arena.get(fresh) = 2;
    EXPECT_EQ(arena.get(old), nullptr); // ...but the old ref is stale
    EXPECT_EQ(*arena.get(fresh), 2);
}

TEST(Arena, ReleaseIsIdempotent)
{
    Arena<int> arena;
    const auto a = arena.acquire();
    arena.release(a);
    arena.release(a); // double release: no-op, must not corrupt
    const auto b = arena.acquire();
    const auto c = arena.acquire();
    EXPECT_NE(b.index, c.index); // freelist holds no duplicate
    EXPECT_EQ(arena.live(), 2u);
}

TEST(Arena, RecycledSlotKeepsCapacityAndGrowthIsStable)
{
    Arena<std::vector<int>> arena;
    auto h = arena.acquire();
    arena.get(h)->assign(100, 7);
    const std::size_t cap = arena.get(h)->capacity();
    arena.release(h);
    auto h2 = arena.acquire();
    // Recycle-not-reconstruct: the vector keeps its buffer.
    EXPECT_GE(arena.get(h2)->capacity(), cap);
    arena.get(h2)->clear();
    // Pointer stability across chunk growth.
    std::vector<int> *p = arena.get(h2);
    std::vector<Arena<std::vector<int>>::Handle> handles;
    for (int i = 0; i < 500; ++i)
        handles.push_back(arena.acquire());
    EXPECT_EQ(arena.get(h2), p);
    EXPECT_GE(arena.capacity(), 501u);
}

TEST(Arena, HandlesAcrossManyChurnsStayUnique)
{
    Arena<std::uint64_t> arena;
    std::vector<Arena<std::uint64_t>::Handle> live;
    std::uint64_t next = 0;
    std::mt19937 rng(7);
    for (int round = 0; round < 2000; ++round) {
        if (live.empty() || rng() % 2 == 0) {
            auto h = arena.acquire();
            *arena.get(h) = next++;
            live.push_back(h);
        } else {
            const std::size_t pick = rng() % live.size();
            arena.release(live[pick]);
            EXPECT_EQ(arena.get(live[pick]), nullptr);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(pick));
        }
        EXPECT_EQ(arena.live(), live.size());
    }
    // Every surviving handle still resolves, to a distinct object.
    std::vector<std::uint64_t> seen;
    for (auto h : live)
        seen.push_back(*arena.get(h));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

// --- Whole-controller determinism stress --------------------------------

namespace determinism {

/** One retired request in the completion timeline. */
struct Retired {
    Time at;
    pcie::FunctionId fn;
    std::uint64_t request;
    ctrl::CompletionStatus status;

    bool operator==(const Retired &) const = default;
};

struct RunResult {
    std::vector<Retired> timeline;
    std::vector<obs::SpanEvent> spans;
};

bool
same_spans(const std::vector<obs::SpanEvent> &a,
           const std::vector<obs::SpanEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto ta = std::tie(a[i].start, a[i].dur, a[i].tag,
                                 a[i].aux, a[i].fn, a[i].stage);
        const auto tb = std::tie(b[i].start, b[i].dur, b[i].tag,
                                 b[i].aux, b[i].fn, b[i].stage);
        if (ta != tb)
            return false;
    }
    return true;
}

/**
 * 4-VF mixed workload: each VF keeps a queue depth of 4 outstanding
 * requests (reads, writes, and reads of unmapped holes) generated from
 * @p seed, until 32 requests per VF have retired. Returns the full
 * completion timeline and every controller trace span.
 */
RunResult
run_workload(std::uint64_t seed)
{
    pcie::HostMemory host_memory(64 << 20);
    storage::MemBlockDeviceConfig dev_cfg;
    dev_cfg.capacity_bytes = 16 << 20;
    storage::MemBlockDevice device(dev_cfg);
    Simulator sim;
    pcie::InterruptController irq(sim);
    ctrl::ControllerConfig cfg;
    cfg.max_vfs = 4;
    ctrl::Controller controller(sim, host_memory, device, irq, cfg);
    pcie::BarPageRouter bar(controller, 4096,
                            controller.num_functions());
    controller.enable_tracing(1 << 16);

    constexpr std::uint64_t kSizeBlocks = 256;
    std::vector<extent::ExtentTreeImage> trees;
    auto pf_write = [&](std::uint64_t offset, std::uint64_t value) {
        ASSERT_TRUE(
            controller.mmio_write(0, offset, value, 8).is_ok());
    };
    std::vector<std::unique_ptr<drv::FunctionDriver>> drivers;
    for (pcie::FunctionId fn = 1; fn <= 4; ++fn) {
        // First half mapped, second half holes (reads zero-fill,
        // writes fault — the driver surfaces those as failures).
        extent::ExtentList extents{
            {0, kSizeBlocks / 2, 3000ULL + fn * 400}};
        auto image =
            extent::ExtentTreeImage::build(host_memory, extents);
        EXPECT_TRUE(image.is_ok());
        trees.push_back(std::move(image).value());
        pf_write(ctrl::reg::kMgmtVfId, fn);
        pf_write(ctrl::reg::kMgmtExtentRoot, trees.back().root());
        pf_write(ctrl::reg::kMgmtDeviceSize, kSizeBlocks);
        pf_write(ctrl::reg::kMgmtCommand,
                 static_cast<std::uint64_t>(
                     ctrl::MgmtCommand::kCreateVf));
        auto driver = std::make_unique<drv::FunctionDriver>(
            sim, host_memory, bar, irq, fn);
        EXPECT_TRUE(driver->init().is_ok());
        drivers.push_back(std::move(driver));
    }

    RunResult result;
    std::mt19937_64 rng(seed);
    constexpr int kDepth = 4;
    constexpr std::uint64_t kRequestsPerVf = 32;
    std::uint64_t next_request = 0;
    std::vector<std::uint64_t> issued(4, 0);
    std::vector<pcie::HostAddr> buffers;
    for (int i = 0; i < 4; ++i)
        buffers.push_back(*host_memory.alloc(16 * 1024, 4096));

    std::function<void(std::size_t)> submit_one =
        [&](std::size_t vf_idx) {
            if (issued[vf_idx] >= kRequestsPerVf)
                return;
            ++issued[vf_idx];
            const std::uint64_t request = next_request++;
            const bool read = rng() % 3 != 0; // 2:1 read:write mix
            const std::uint32_t nblocks =
                1 + static_cast<std::uint32_t>(rng() % 4);
            // Reads roam the whole device (holes included); writes
            // stay on the mapped half so they retire kOk.
            const std::uint64_t span =
                (read ? kSizeBlocks : kSizeBlocks / 2) - nblocks;
            const std::uint64_t vlba = rng() % span;
            const auto status = drivers[vf_idx]->submit(
                read ? ctrl::Opcode::kRead : ctrl::Opcode::kWrite,
                vlba, nblocks, buffers[vf_idx],
                [&result, &sim, &submit_one, vf_idx,
                 request](ctrl::CompletionStatus s) {
                    result.timeline.push_back(
                        {sim.now(),
                         static_cast<pcie::FunctionId>(vf_idx + 1),
                         request, s});
                    submit_one(vf_idx);
                });
            ASSERT_TRUE(status.is_ok());
        };
    for (std::size_t vf = 0; vf < 4; ++vf)
        for (int d = 0; d < kDepth; ++d)
            submit_one(vf);
    sim.run_until_idle();

    EXPECT_EQ(result.timeline.size(), 4 * kRequestsPerVf);
    result.spans = controller.tracer().events();
    EXPECT_FALSE(result.spans.empty());
    return result;
}

TEST(SimDeterminism, MixedWorkloadIsSeedStable)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        // Same seed: runs must match event for event.
        RunResult a = run_workload(seed);
        RunResult b = run_workload(seed);
        EXPECT_EQ(a.timeline, b.timeline) << "seed " << seed;
        EXPECT_TRUE(same_spans(a.spans, b.spans)) << "seed " << seed;
    }
}

/**
 * FNV-1a over 64-bit words, fed least-significant byte first so the
 * digest does not depend on the host's byte order.
 */
struct Digest {
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

/**
 * One line per seed: completion count, then digests of the completion
 * timeline and of the trace spans. The checked-in copy pins execution
 * order, so any reordering of same-time events shows up here.
 */
std::string
order_fingerprint(std::uint64_t seed)
{
    const RunResult r = run_workload(seed);
    Digest timeline, spans;
    for (const Retired &e : r.timeline) {
        timeline.add(e.at);
        timeline.add(e.fn);
        timeline.add(e.request);
        timeline.add(static_cast<std::uint64_t>(e.status));
    }
    for (const obs::SpanEvent &e : r.spans) {
        spans.add(e.start);
        spans.add(e.dur);
        spans.add(e.tag);
        spans.add(e.aux);
        spans.add(e.fn);
        spans.add(static_cast<std::uint64_t>(e.stage));
    }
    char line[128];
    std::snprintf(line, sizeof line,
                  "seed %llu completions %zu timeline %016llx spans "
                  "%016llx\n",
                  static_cast<unsigned long long>(seed), r.timeline.size(),
                  static_cast<unsigned long long>(timeline.h),
                  static_cast<unsigned long long>(spans.h));
    return line;
}

TEST(SimDeterminism, OrderMatchesGolden)
{
    std::string actual;
    for (std::uint64_t seed = 1; seed <= 10; ++seed)
        actual += order_fingerprint(seed);
    std::ifstream golden_file(NESC_SIM_ORDER_GOLDEN);
    std::stringstream golden;
    golden << golden_file.rdbuf();
    if (golden.str() == actual)
        return;
    std::ofstream("sim_order.actual.txt") << actual;
    ADD_FAILURE() << "execution order drifted from " << NESC_SIM_ORDER_GOLDEN
                  << "\n--- golden\n"
                  << golden.str()
                  << "--- actual (also in sim_order.actual.txt)\n"
                  << actual;
}

} // namespace determinism

} // namespace
} // namespace nesc::sim
