/**
 * @file
 * Discrete-event simulation engine.
 *
 * Every modelled component (the NeSC controller pipeline, DMA engine,
 * virtqueues, interrupt delivery...) schedules closures on a single
 * Simulator. Events at equal timestamps execute in scheduling order, so
 * runs are fully deterministic.
 *
 * The pending set is one binary heap of 24-byte keys (when, seq,
 * slot); callbacks live in a recycled slot pool, so heap sifts move
 * keys, never the 96-byte sim::Callback.
 *
 * Events come in two strengths. Ordinary (strong) events represent
 * work in flight and keep the simulation alive: run_until_idle()
 * drains until none remain. Weak events (schedule_weak_in) are
 * maintenance timers — periodic telemetry windows, samplers — that
 * fire in normal global order while anything else is running or while
 * time is driven forward with run_until(), but never by themselves
 * keep run_until_idle() spinning. A self-rescheduling weak timer is
 * therefore safe: it ticks for as long as the simulation has real
 * work (or a deadline to reach) and goes quiescent with it, exactly
 * like an unreferenced timer in an event loop.
 *
 * Determinism contract: the sequence number is assigned at schedule
 * time and the heap orders strictly by (when, seq), so equal-time
 * events run in scheduling order. tests/golden/sim_order.txt pins the
 * resulting order on a multi-VF controller workload.
 */
#ifndef NESC_SIM_SIMULATOR_H
#define NESC_SIM_SIMULATOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/event_heap.h"
#include "sim/time.h"

namespace nesc::sim {

/** Event-driven virtual-time simulator. */
class Simulator {
  public:
    using Callback = sim::Callback;

    /** Pre-sized event capacity (events, not bytes). */
    static constexpr std::size_t kDefaultReserve = 4096;

    Simulator();

    /** Current simulated time. */
    Time now() const { return now_; }

    /** Schedules @p fn at absolute time @p when (>= now). */
    void schedule_at(Time when, Callback fn)
    {
        schedule_event(when, std::move(fn), /*weak=*/false);
    }

    /**
     * Schedules @p fn @p delay nanoseconds from now. A delay past the
     * end of time lands at kTimeMax instead of wrapping into the past.
     */
    void schedule_in(Duration delay, Callback fn)
    {
        schedule_event(after(delay), std::move(fn), /*weak=*/false);
    }

    /**
     * Schedules a weak event @p delay nanoseconds from now (saturating
     * like schedule_in). Weak events execute in the same global
     * (when, seq) order as strong ones but do not count toward idle:
     * run_until_idle() returns once only weak events remain (without
     * firing them), while run_until() fires any that fall inside its
     * window. Use for periodic maintenance timers that re-arm
     * themselves forever.
     */
    void schedule_weak_in(Duration delay, Callback fn)
    {
        schedule_event(after(delay), std::move(fn), /*weak=*/true);
    }

    /** Grows heap and callback-pool capacity to @p events. */
    void reserve(std::size_t events);

    /** True when no strong events are pending. */
    bool idle() const { return heap_.size() == weak_pending_; }

    /** Weak (maintenance-timer) events currently pending. */
    std::size_t weak_pending() const { return weak_pending_; }

    /**
     * Executes the earliest pending event, advancing the clock to its
     * timestamp. Returns false when no events are pending.
     */
    bool step();

    /**
     * Runs until no strong events remain. Pending weak events are
     * left armed (they fire on a later run_until(), or whenever new
     * strong work is scheduled past them).
     */
    void run_until_idle();

    /**
     * Runs events with timestamp <= @p deadline, then advances the
     * clock to @p deadline (if it is later than the last event).
     */
    void run_until(Time deadline);

    /**
     * Advances the clock by @p delay, executing any events that fall
     * inside the window. Models a component busy-waiting in virtual
     * time (e.g. a driver charging CPU cost).
     */
    void advance(Duration delay) { run_until(now_ + delay); }

    std::uint64_t events_executed() const { return events_executed_; }

    /**
     * Events executed by every Simulator instance in this process
     * (benches report wall-clock events/sec off it). Single-threaded,
     * like the simulators themselves.
     */
    static std::uint64_t total_events_executed()
    {
        return g_total_events_;
    }

  private:
    /** now + @p delay, saturated at kTimeMax. */
    Time after(Duration delay) const
    {
        return delay > kTimeMax - now_ ? kTimeMax : now_ + delay;
    }
    void schedule_event(Time when, Callback fn, bool weak);

    Time now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t events_executed_ = 0;
    std::size_t weak_pending_ = 0;

    EventHeap heap_;
    /** Callback pool; EventKey::slot indexes into it. */
    std::vector<Callback> slots_;
    std::vector<std::uint32_t> free_slots_;

    static inline std::uint64_t g_total_events_ = 0;
};

} // namespace nesc::sim

#endif // NESC_SIM_SIMULATOR_H
