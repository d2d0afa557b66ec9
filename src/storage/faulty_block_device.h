/**
 * @file
 * Fault-injecting decorator over any BlockDevice.
 *
 * Real storage controllers are qualified against media failures, not
 * just the happy path; this decorator lets every test and bench run
 * the same pipeline under a deterministic error model. A seeded
 * FaultPlan drives four fault classes:
 *
 *   - hard media errors (DATA_LOSS) on reads and/or writes, drawn
 *     per-operation from independent probabilities;
 *   - transient errors (UNAVAILABLE) that a fresh retry of the same
 *     operation may survive;
 *   - latent bad-block ranges that fail every access overlapping them
 *     (the classic grown-defect list);
 *   - silent bit corruption: the read succeeds but one bit of the
 *     returned payload is flipped (detectable only end-to-end);
 *   - stalls: the operation succeeds but completes arbitrarily late
 *     (a sick disk, a dropped-and-retried fabric frame). Stalls are a
 *     timing fault: they stretch service_read/service_write without
 *     touching the functional result, which is what failover timeout
 *     logic has to be exercised against.
 *
 * Faults can also be scheduled by operation index, which gives tests
 * single-shot deterministic triggers without probability tuning. The
 * timing path (service_read/service_write) is otherwise forwarded
 * untouched: failed media operations still occupy the media port, as
 * they do on real hardware. Stall draws come from a separate RNG
 * stream and a separate (timing-)op index space, so enabling them
 * never perturbs the functional fault stream of an existing seed.
 */
#ifndef NESC_STORAGE_FAULTY_BLOCK_DEVICE_H
#define NESC_STORAGE_FAULTY_BLOCK_DEVICE_H

#include <vector>

#include "obs/metrics.h"
#include "storage/block_device.h"
#include "util/rng.h"

namespace nesc::storage {

/** Fault classes the decorator can inject. */
enum class InjectedFault : std::uint8_t {
    kNone = 0,
    kReadError,  ///< hard media error on a read (DATA_LOSS)
    kWriteError, ///< hard media error on a write (DATA_LOSS)
    kTransient,  ///< transient failure (UNAVAILABLE); retry may succeed
    kCorrupt,    ///< silent single-bit flip in returned read data
    kStall,      ///< completes correctly but arbitrarily late (timing)
    kCorruptSticky, ///< bit flip in the *stored* block (persistent bitrot)
};

/** A block range that always fails (grown media defect). */
struct BadBlockRange {
    std::uint64_t first_block = 0;
    std::uint64_t nblocks = 0;
};

/** A single-shot fault triggered at the Nth media operation. */
struct ScheduledFault {
    /**
     * Zero-based index in the combined read+write operation stream.
     * kStall entries index the *timing*-op stream (service_read/
     * service_write calls) instead; the two spaces are independent.
     */
    std::uint64_t op_index = 0;
    InjectedFault kind = InjectedFault::kNone;
};

/** Seeded description of what to inject and how often. */
struct FaultPlan {
    std::uint64_t seed = 1;
    /** Per-read probability of a hard media error. */
    double read_error_prob = 0.0;
    /** Per-write probability of a hard media error. */
    double write_error_prob = 0.0;
    /** Per-op probability of a transient UNAVAILABLE (both directions). */
    double transient_prob = 0.0;
    /** Per-read probability of a silent bit flip in the payload. */
    double corrupt_prob = 0.0;
    /**
     * Per-op probability of a *sticky* bit flip: the stored block is
     * damaged in place (bitrot), so the corruption persists for later
     * reads and the background scrubber to find. Drawn from its own
     * RNG stream, so enabling it never perturbs existing seeds.
     */
    double corrupt_sticky_prob = 0.0;
    /** Per-timing-op probability of a stall (drawn from its own RNG). */
    double stall_prob = 0.0;
    /** Extra completion delay a stalled operation suffers. */
    sim::Duration stall_ns = 10'000'000; // 10 ms
    /** Ranges (device blocks) that fail every overlapping access. */
    std::vector<BadBlockRange> bad_blocks;
    /** Deterministic single-shot triggers, by media-op index. */
    std::vector<ScheduledFault> schedule;
};

/** BlockDevice decorator injecting faults per a FaultPlan. */
class FaultyBlockDevice : public BlockDevice {
  public:
    /** @p inner must outlive the decorator. */
    FaultyBlockDevice(BlockDevice &inner, const FaultPlan &plan);

    const Geometry &geometry() const override { return inner_.geometry(); }

    util::Status read(std::uint64_t offset,
                      std::span<std::byte> out) override;
    util::Status write(std::uint64_t offset,
                       std::span<const std::byte> in) override;

    sim::Time
    service_read(sim::Time start, std::uint64_t offset,
                 std::uint64_t bytes) override
    {
        return inner_.service_read(start, offset, bytes) + draw_stall();
    }
    sim::Time
    service_write(sim::Time start, std::uint64_t offset,
                  std::uint64_t bytes) override
    {
        return inner_.service_write(start, offset, bytes) + draw_stall();
    }

    std::uint64_t bytes_read() const override { return inner_.bytes_read(); }
    std::uint64_t bytes_written() const override
    {
        return inner_.bytes_written();
    }

    const FaultPlan &plan() const { return plan_; }
    BlockDevice &inner() { return inner_; }

    /**
     * Injection accounting: `injected_faults` (total) plus one counter
     * per class (`read_media_errors`, `write_media_errors`,
     * `transient_faults`, `silent_corruptions`, `sticky_corruptions`,
     * `bad_block_hits`, `stall_faults`).
     */
    const obs::MetricsRegistry &counters() const { return counters_; }

    /** Media operations observed so far (schedule index space). */
    std::uint64_t ops_seen() const { return op_index_; }
    /** Timing operations observed so far (kStall schedule space). */
    std::uint64_t timing_ops_seen() const { return timing_op_index_; }

  private:
    /** Picks the fault (if any) for the current op; advances the RNG. */
    InjectedFault draw(bool is_read, std::uint64_t offset,
                       std::uint64_t bytes);
    /** Stall delay (0 when none) for the current timing op. */
    sim::Duration draw_stall();
    /**
     * Sticky-corruption draw for functional op @p index over @p bytes:
     * 0 when no corruption strikes, otherwise 1 + the bit to flip.
     * Always consumes exactly one sticky-stream probability draw.
     */
    std::uint64_t draw_sticky(std::uint64_t index, std::uint64_t bytes);
    /** Flips stored bit @p bit of the range at @p offset in place. */
    void damage_stored_bit(std::uint64_t offset, std::uint64_t bit);
    bool overlaps_bad_range(std::uint64_t offset, std::uint64_t bytes) const;

    BlockDevice &inner_;
    FaultPlan plan_;
    util::Rng rng_;
    /** Independent stream so stalls never shift the functional draws. */
    util::Rng stall_rng_;
    /** Independent stream for sticky corruption (same isolation rule). */
    util::Rng sticky_rng_;
    obs::MetricsRegistry counters_;
    std::uint64_t op_index_ = 0;
    std::uint64_t timing_op_index_ = 0;
};

} // namespace nesc::storage

#endif // NESC_STORAGE_FAULTY_BLOCK_DEVICE_H
