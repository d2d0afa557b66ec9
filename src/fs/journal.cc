#include "journal.h"

#include <algorithm>
#include <cstring>

#include "util/journal_checksum.h"
#include "util/units.h"

namespace nesc::fs {

Journal::Journal(blk::BlockIo &io, std::uint64_t start, std::uint64_t nblocks,
                 std::uint64_t next_txn_id)
    : io_(io), start_(start), nblocks_(nblocks), next_txn_id_(next_txn_id)
{
}

void
Journal::stage(std::uint64_t blockno, std::span<const std::byte> data)
{
    // Re-staging a block overwrites its buffer in place.
    staged_[blockno].assign(data.begin(), data.end());
}

bool
Journal::is_staged(std::uint64_t blockno) const
{
    return staged_.contains(blockno);
}

util::Status
Journal::read_through(std::uint64_t blockno, std::span<std::byte> out)
{
    auto it = staged_.find(blockno);
    if (it != staged_.end()) {
        std::copy(it->second.begin(), it->second.end(), out.begin());
        return util::Status::ok();
    }
    return io_.read_blocks(blockno, 1, out);
}

util::Status
Journal::commit_chunk(
    const std::vector<std::pair<std::uint64_t, std::vector<std::byte>>>
        &chunk)
{
    const std::uint64_t txn_id = next_txn_id_++;

    // Transactions never wrap across the ring boundary: if this one
    // does not fit in the remaining tail, restart from the ring head.
    // Replay relies on this (it scans from the head and stops at the
    // first non-ascending transaction id).
    const std::uint64_t txn_size = chunk.size() + 2;
    if (cursor_ % nblocks_ + txn_size > nblocks_)
        cursor_ = util::round_up(cursor_, nblocks_);

    // 1. Descriptor block: header + target block numbers.
    std::vector<std::byte> desc(kFsBlockSize);
    JournalDescHeader header{kJournalDescMagic,
                             static_cast<std::uint32_t>(chunk.size()),
                             txn_id};
    std::memcpy(desc.data(), &header, sizeof(header));
    for (std::size_t i = 0; i < chunk.size(); ++i) {
        const std::uint64_t target = chunk[i].first;
        std::memcpy(desc.data() + sizeof(header) + i * sizeof(std::uint64_t),
                    &target, sizeof(target));
    }
    NESC_RETURN_IF_ERROR(io_.write_blocks(ring_block(cursor_++), 1, desc));

    // 2. Payload blocks, accumulating the checksum.
    std::uint64_t checksum = 0;
    for (const auto &[target, data] : chunk) {
        (void)target;
        checksum += util::journal_checksum(data);
        NESC_RETURN_IF_ERROR(
            io_.write_blocks(ring_block(cursor_++), 1, data));
    }

    // 3. Commit record. A torn transaction lacks a matching commit and
    // is ignored at replay.
    std::vector<std::byte> commit_blk(kFsBlockSize);
    JournalCommitRecord commit{kJournalCommitMagic, 0, txn_id, checksum};
    std::memcpy(commit_blk.data(), &commit, sizeof(commit));
    NESC_RETURN_IF_ERROR(
        io_.write_blocks(ring_block(cursor_++), 1, commit_blk));

    // 4. Checkpoint: write the real locations.
    for (const auto &[target, data] : chunk)
        NESC_RETURN_IF_ERROR(io_.write_blocks(target, 1, data));

    ++commits_;
    blocks_journaled_ += chunk.size();
    return util::Status::ok();
}

util::Status
Journal::commit()
{
    if (staged_.empty())
        return util::Status::ok();
    // A transaction (desc + payload + commit) must fit in the ring and
    // in one descriptor block; split oversized commits.
    const std::uint64_t max_per_txn =
        std::min<std::uint64_t>(kMaxTxnBlocks,
                                nblocks_ > 2 ? nblocks_ - 2 : 1);

    std::vector<std::pair<std::uint64_t, std::vector<std::byte>>> chunk;
    for (auto &[blockno, data] : staged_) {
        chunk.emplace_back(blockno, std::move(data));
        if (chunk.size() == max_per_txn) {
            NESC_RETURN_IF_ERROR(commit_chunk(chunk));
            chunk.clear();
        }
    }
    if (!chunk.empty())
        NESC_RETURN_IF_ERROR(commit_chunk(chunk));
    staged_.clear();
    return util::Status::ok();
}

util::Result<std::uint64_t>
Journal::replay()
{
    // Scan the ring from the start, replaying complete transactions in
    // ascending txn order until the chain breaks. Checkpointing makes
    // replay idempotent.
    std::uint64_t replayed = 0;
    std::uint64_t pos = 0;
    std::uint64_t prev_txn_id = 0;
    std::vector<std::byte> block(kFsBlockSize);

    while (pos + 2 < nblocks_) {
        NESC_RETURN_IF_ERROR(io_.read_blocks(ring_block(pos), 1, block));
        JournalDescHeader header;
        std::memcpy(&header, block.data(), sizeof(header));
        if (header.magic != kJournalDescMagic || header.count == 0 ||
            header.count > kMaxTxnBlocks)
            break;
        // Stale transactions left over from a previous ring pass have
        // lower ids than the fresh ones at the head; stop there.
        if (replayed > 0 && header.txn_id <= prev_txn_id)
            break;
        if (pos + 1 + header.count + 1 > nblocks_)
            break; // would wrap past the scan window
        std::vector<std::uint64_t> targets(header.count);
        std::memcpy(targets.data(), block.data() + sizeof(header),
                    header.count * sizeof(std::uint64_t));

        std::vector<std::vector<std::byte>> payload(header.count);
        std::uint64_t checksum = 0;
        for (std::uint32_t i = 0; i < header.count; ++i) {
            payload[i].resize(kFsBlockSize);
            NESC_RETURN_IF_ERROR(
                io_.read_blocks(ring_block(pos + 1 + i), 1, payload[i]));
            checksum += util::journal_checksum(payload[i]);
        }
        NESC_RETURN_IF_ERROR(io_.read_blocks(
            ring_block(pos + 1 + header.count), 1, block));
        JournalCommitRecord commit;
        std::memcpy(&commit, block.data(), sizeof(commit));
        if (commit.magic != kJournalCommitMagic ||
            commit.txn_id != header.txn_id || commit.checksum != checksum)
            break; // torn transaction: stop replay here

        for (std::uint32_t i = 0; i < header.count; ++i)
            NESC_RETURN_IF_ERROR(io_.write_blocks(targets[i], 1,
                                                  payload[i]));
        ++replayed;
        prev_txn_id = header.txn_id;
        next_txn_id_ = std::max(next_txn_id_, header.txn_id + 1);
        pos += 2 + header.count;
    }
    cursor_ = pos;
    return replayed;
}

} // namespace nesc::fs
