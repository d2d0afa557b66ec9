/**
 * @file
 * Layer boundary recording owned by the benchmark (nothing under src/
 * is instrumented).
 *
 *  - HostLedger attributes host wall-clock time exclusively to the
 *    innermost active category (event loop, benchmark callback, driver
 *    submit). Entering a category charges the time since the last
 *    transition to the category being left, so nested calls (a submit
 *    that steps the simulator, which fires a callback, which submits)
 *    are counted once each.
 *  - SpanStack + RecordingDisk wrap a guest's disk chain in
 *    pass-through blk::BlockIo recorders. Each call is a span; a
 *    layer's self time is its spans' total minus the spans of the
 *    layer below that ran inside them. Recorders charge no simulated
 *    time, so the simulated run is identical with or without them.
 *    Simulated totals are always kept (they are deterministic and
 *    cheap); host stamps are taken only in the traced run.
 */
#ifndef NESC_PERFBENCH_LAYER_TRACE_H
#define NESC_PERFBENCH_LAYER_TRACE_H

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "blocklayer/block_io.h"
#include "sim/simulator.h"

namespace perfbench {

/** Host nanoseconds on the steady clock. */
inline std::uint64_t
host_now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Exclusive host-time attribution; see file comment. */
class HostLedger {
  public:
    enum Category : std::size_t { kLoop = 0, kBench, kSubmit, kCount };

    explicit HostLedger(bool enabled) : enabled_(enabled) {}

    /** Starts accounting in kLoop. */
    void start()
    {
        if (!enabled_)
            return;
        stack_.assign(1, kLoop);
        last_ = host_now_ns();
    }
    void enter(Category category)
    {
        if (!enabled_)
            return;
        charge();
        stack_.push_back(category);
    }
    void leave()
    {
        if (!enabled_)
            return;
        charge();
        stack_.pop_back();
    }
    /** Stops accounting (charges the tail to the current category). */
    void stop()
    {
        if (!enabled_)
            return;
        charge();
        stack_.clear();
    }
    std::uint64_t ns(Category category) const { return ns_[category]; }

  private:
    void charge()
    {
        const std::uint64_t now = host_now_ns();
        ns_[stack_.back()] += now - last_;
        last_ = now;
    }

    bool enabled_;
    std::vector<Category> stack_;
    std::uint64_t last_ = 0;
    std::uint64_t ns_[kCount] = {};
};

/** Accumulated spans of one layer of a guest's disk chain. */
struct LayerTotals {
    std::uint64_t calls = 0;
    std::uint64_t blocks = 0;   ///< blocks read or written
    std::uint64_t failures = 0; ///< calls that returned an error
    std::uint64_t sim_ns = 0;       ///< summed span durations
    std::uint64_t child_sim_ns = 0; ///< of which spent in the layer below
    std::uint64_t host_ns = 0;      ///< traced run only

    std::uint64_t self_sim_ns() const { return sim_ns - child_sim_ns; }
};

/**
 * Nesting of the recorded spans of one guest's disk chain. The layer
 * below a recorder must be entered and left inside the recorder's own
 * span; leave() checks that and counts violations.
 */
class SpanStack {
  public:
    SpanStack(nesc::sim::Simulator &simulator, std::size_t layers,
              bool host_stamps)
        : simulator_(simulator), layers_(layers), host_stamps_(host_stamps)
    {
    }

    void enter(std::size_t layer)
    {
        open_.push_back(
            Open{layer, simulator_.now(), host_stamps_ ? host_now_ns() : 0});
    }
    /**
     * Closes the innermost span of a call that moved @p blocks blocks;
     * returns its simulated duration.
     */
    std::uint64_t leave(std::size_t layer, std::uint64_t blocks, bool ok)
    {
        if (open_.empty() || open_.back().layer != layer) {
            ++nesting_errors_;
            return 0;
        }
        const Open span = open_.back();
        open_.pop_back();
        const std::uint64_t sim_ns = simulator_.now() - span.sim_start;
        const std::uint64_t host_ns =
            host_stamps_ ? host_now_ns() - span.host_start : 0;
        LayerTotals &totals = layers_[layer];
        ++totals.calls;
        totals.blocks += blocks;
        totals.failures += ok ? 0 : 1;
        totals.sim_ns += sim_ns;
        totals.host_ns += host_ns;
        if (!open_.empty())
            layers_[open_.back().layer].child_sim_ns += sim_ns;
        return sim_ns;
    }

    /** Drops the totals so far (between setup and measurement). */
    void reset()
    {
        for (LayerTotals &totals : layers_)
            totals = LayerTotals{};
    }

    const LayerTotals &layer(std::size_t index) const
    {
        return layers_[index];
    }
    bool idle() const { return open_.empty(); }
    std::uint64_t nesting_errors() const { return nesting_errors_; }

  private:
    struct Open {
        std::size_t layer;
        nesc::sim::Time sim_start;
        std::uint64_t host_start;
    };

    nesc::sim::Simulator &simulator_;
    std::vector<LayerTotals> layers_;
    std::vector<Open> open_;
    bool host_stamps_;
    std::uint64_t nesting_errors_ = 0;
};

/**
 * Pass-through recorder around one disk of a guest's chain. Optionally
 * keeps the simulated latency of every read and write (the guest's
 * device boundary).
 */
class RecordingDisk : public nesc::blk::BlockIo {
  public:
    RecordingDisk(nesc::blk::BlockIo &inner, SpanStack &spans,
                  std::size_t layer,
                  std::vector<std::uint64_t> *latencies = nullptr)
        : inner_(inner), spans_(spans), layer_(layer),
          latencies_(latencies)
    {
    }

    std::uint32_t block_size() const override { return inner_.block_size(); }
    std::uint64_t num_blocks() const override { return inner_.num_blocks(); }

    nesc::util::Status read_blocks(std::uint64_t blockno,
                                   std::uint32_t count,
                                   std::span<std::byte> out) override
    {
        spans_.enter(layer_);
        nesc::util::Status status = inner_.read_blocks(blockno, count, out);
        sample(spans_.leave(layer_, count, status.is_ok()));
        return status;
    }
    nesc::util::Status write_blocks(std::uint64_t blockno,
                                    std::uint32_t count,
                                    std::span<const std::byte> in) override
    {
        spans_.enter(layer_);
        nesc::util::Status status = inner_.write_blocks(blockno, count, in);
        sample(spans_.leave(layer_, count, status.is_ok()));
        return status;
    }
    nesc::util::Status flush() override
    {
        spans_.enter(layer_);
        nesc::util::Status status = inner_.flush();
        spans_.leave(layer_, 0, status.is_ok());
        return status;
    }

  private:
    void sample(std::uint64_t sim_ns)
    {
        if (latencies_ != nullptr)
            latencies_->push_back(sim_ns);
    }

    nesc::blk::BlockIo &inner_;
    SpanStack &spans_;
    std::size_t layer_;
    std::vector<std::uint64_t> *latencies_;
};

} // namespace perfbench

#endif // NESC_PERFBENCH_LAYER_TRACE_H
