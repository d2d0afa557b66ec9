#include "faulty_block_device.h"

namespace nesc::storage {

FaultyBlockDevice::FaultyBlockDevice(BlockDevice &inner,
                                     const FaultPlan &plan)
    : inner_(inner), plan_(plan), rng_(plan.seed),
      stall_rng_(plan.seed ^ 0x5741'4c4c'5354'414cULL), // "STALL" salt
      sticky_rng_(plan.seed ^ 0x5354'4943'4b59'4342ULL) // "STICKYCB" salt
{
}

bool
FaultyBlockDevice::overlaps_bad_range(std::uint64_t offset,
                                      std::uint64_t bytes) const
{
    const std::uint32_t bs = inner_.geometry().logical_block_size;
    const std::uint64_t first = offset / bs;
    const std::uint64_t last = bytes ? (offset + bytes - 1) / bs : first;
    for (const BadBlockRange &range : plan_.bad_blocks) {
        if (range.nblocks == 0)
            continue;
        if (first <= range.first_block + range.nblocks - 1 &&
            last >= range.first_block)
            return true;
    }
    return false;
}

InjectedFault
FaultyBlockDevice::draw(bool is_read, std::uint64_t offset,
                        std::uint64_t bytes)
{
    const std::uint64_t index = op_index_++;
    for (const ScheduledFault &sched : plan_.schedule) {
        // kStall entries live in the timing-op index space, and
        // kCorruptSticky is drawn orthogonally in apply_sticky();
        // neither is a "main" fault here.
        if (sched.op_index == index && sched.kind != InjectedFault::kNone &&
            sched.kind != InjectedFault::kStall &&
            sched.kind != InjectedFault::kCorruptSticky)
            return sched.kind;
    }
    if (overlaps_bad_range(offset, bytes)) {
        counters_.bump("bad_block_hits");
        return is_read ? InjectedFault::kReadError
                       : InjectedFault::kWriteError;
    }
    // One RNG draw per class keeps the stream deterministic regardless
    // of which probabilities are enabled: every op consumes the same
    // number of draws.
    const bool transient = rng_.next_bool(plan_.transient_prob);
    const bool hard = rng_.next_bool(is_read ? plan_.read_error_prob
                                             : plan_.write_error_prob);
    const bool corrupt = rng_.next_bool(plan_.corrupt_prob);
    if (transient)
        return InjectedFault::kTransient;
    if (hard)
        return is_read ? InjectedFault::kReadError
                       : InjectedFault::kWriteError;
    if (corrupt && is_read)
        return InjectedFault::kCorrupt;
    return InjectedFault::kNone;
}

std::uint64_t
FaultyBlockDevice::draw_sticky(std::uint64_t index, std::uint64_t bytes)
{
    bool hit = false;
    for (const ScheduledFault &sched : plan_.schedule) {
        if (sched.op_index == index &&
            sched.kind == InjectedFault::kCorruptSticky)
            hit = true;
    }
    // Exactly one probability draw per media op, scheduled or not, so
    // the sticky stream is stable under schedule edits (the stall
    // idiom) and independent of every other fault class's outcome.
    if (sticky_rng_.next_bool(plan_.corrupt_sticky_prob))
        hit = true;
    if (!hit || bytes == 0)
        return 0;
    return 1 + sticky_rng_.next_below(bytes * 8);
}

void
FaultyBlockDevice::damage_stored_bit(std::uint64_t offset, std::uint64_t bit)
{
    std::byte damaged;
    if (!inner_.read(offset + bit / 8, std::span(&damaged, 1)).is_ok())
        return;
    damaged ^= static_cast<std::byte>(1u << (bit % 8));
    if (!inner_.write(offset + bit / 8,
                      std::span<const std::byte>(&damaged, 1))
             .is_ok())
        return;
    counters_.bump("injected_faults");
    counters_.bump("sticky_corruptions");
}

util::Status
FaultyBlockDevice::read(std::uint64_t offset, std::span<std::byte> out)
{
    const std::uint64_t index = op_index_;
    const InjectedFault fault = draw(/*is_read=*/true, offset, out.size());
    // Bitrot lands before the media services the read, so the damaged
    // byte is what this very read returns.
    const std::uint64_t sticky = draw_sticky(index, out.size());
    if (sticky != 0)
        damage_stored_bit(offset, sticky - 1);
    switch (fault) {
      case InjectedFault::kReadError:
        counters_.bump("injected_faults");
        counters_.bump("read_media_errors");
        return util::data_loss_error("injected media read error");
      case InjectedFault::kTransient:
        counters_.bump("injected_faults");
        counters_.bump("transient_faults");
        return util::unavailable_error("injected transient read fault");
      case InjectedFault::kCorrupt: {
        NESC_RETURN_IF_ERROR(inner_.read(offset, out));
        if (!out.empty()) {
            counters_.bump("injected_faults");
            counters_.bump("silent_corruptions");
            const std::uint64_t bit = rng_.next_below(out.size() * 8);
            out[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
        }
        return util::Status::ok();
      }
      case InjectedFault::kWriteError:
      case InjectedFault::kStall:
      case InjectedFault::kCorruptSticky:
      case InjectedFault::kNone:
        break;
    }
    return inner_.read(offset, out);
}

sim::Duration
FaultyBlockDevice::draw_stall()
{
    const std::uint64_t index = timing_op_index_++;
    bool stall = false;
    for (const ScheduledFault &sched : plan_.schedule) {
        if (sched.op_index == index && sched.kind == InjectedFault::kStall)
            stall = true;
    }
    // Exactly one draw per timing op, even when scheduled, so the
    // stall stream is stable under schedule edits.
    if (stall_rng_.next_bool(plan_.stall_prob))
        stall = true;
    if (!stall)
        return 0;
    counters_.bump("injected_faults");
    counters_.bump("stall_faults");
    return plan_.stall_ns;
}

util::Status
FaultyBlockDevice::write(std::uint64_t offset, std::span<const std::byte> in)
{
    const std::uint64_t index = op_index_;
    const InjectedFault fault = draw(/*is_read=*/false, offset, in.size());
    const std::uint64_t sticky = draw_sticky(index, in.size());
    switch (fault) {
      case InjectedFault::kWriteError:
        counters_.bump("injected_faults");
        counters_.bump("write_media_errors");
        return util::data_loss_error("injected media write error");
      case InjectedFault::kTransient:
        counters_.bump("injected_faults");
        counters_.bump("transient_faults");
        return util::unavailable_error("injected transient write fault");
      case InjectedFault::kReadError:
      case InjectedFault::kCorrupt:
      case InjectedFault::kStall:
      case InjectedFault::kCorruptSticky:
      case InjectedFault::kNone:
        break;
    }
    NESC_RETURN_IF_ERROR(inner_.write(offset, in));
    // Bitrot after the write lands damages the freshly stored copy —
    // exactly what the scrubber exists to find.
    if (sticky != 0)
        damage_stored_bit(offset, sticky - 1);
    return util::Status::ok();
}

} // namespace nesc::storage
