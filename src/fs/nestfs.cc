#include "nestfs.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "fs/extent_map.h"
#include "util/units.h"

namespace nesc::fs {

using extent::Extent;
using extent::ExtentList;
using extent::Plba;
using extent::Vlba;

// --------------------------------------------------------------------
// Lifecycle
// --------------------------------------------------------------------

util::Result<std::unique_ptr<NestFs>>
NestFs::format(blk::BlockIo &io, const NestFsConfig &config)
{
    if (io.block_size() != kFsBlockSize)
        return util::invalid_argument_error("nestfs requires 1 KiB blocks");
    if (config.inode_count == 0)
        return util::invalid_argument_error("inode_count must be > 0");

    const std::uint64_t total_blocks = io.num_blocks();
    SuperBlock sb{};
    sb.magic = kSuperMagic;
    sb.version = config.meta_checksums ? kSuperVersionChecksummed
                                       : kSuperVersionBase;
    sb.block_size = kFsBlockSize;
    sb.inode_count = config.inode_count;
    sb.total_blocks = total_blocks;
    sb.bitmap_start = 1;
    sb.bitmap_blocks = util::ceil_div(total_blocks, 8ULL * kFsBlockSize);
    sb.itable_start = sb.bitmap_start + sb.bitmap_blocks;
    sb.itable_blocks = util::ceil_div(config.inode_count, kInodesPerBlock);
    sb.journal_start = sb.itable_start + sb.itable_blocks;
    sb.journal_blocks =
        config.journal_mode == JournalMode::kNone ? 0 : config.journal_blocks;
    sb.data_start = sb.journal_start + sb.journal_blocks;
    sb.journal_mode = static_cast<std::uint32_t>(config.journal_mode);
    sb.clean_shutdown = 1;
    sb.next_txn_id = 1;
    if (sb.data_start + 8 > total_blocks)
        return util::invalid_argument_error(
            "volume too small for requested nestfs layout");

    // Zero all metadata regions (bitmap, inode table, journal head).
    std::vector<std::byte> zero(kFsBlockSize);
    for (std::uint64_t b = sb.bitmap_start; b < sb.data_start; ++b)
        NESC_RETURN_IF_ERROR(io.write_blocks(b, 1, zero));

    // Superblock.
    if (config.meta_checksums)
        sb.csum = superblock_crc(sb);
    std::vector<std::byte> sb_block(kFsBlockSize);
    std::memcpy(sb_block.data(), &sb, sizeof(sb));
    NESC_RETURN_IF_ERROR(io.write_blocks(0, 1, sb_block));

    auto fs = std::unique_ptr<NestFs>(new NestFs(io));
    fs->super_ = sb;
    fs->journal_ = std::make_unique<Journal>(
        io, sb.journal_start, std::max<std::uint64_t>(sb.journal_blocks, 1),
        sb.next_txn_id);

    // In-memory bitmap: metadata region pre-allocated.
    fs->bitmap_.assign(sb.bitmap_blocks * kFsBlockSize, 0);
    fs->bitmap_fill(0, sb.data_start);
    fs->free_block_count_ = total_blocks - sb.data_start;
    fs->stage_bitmap_blocks(0, total_blocks);

    // Free inodes (root is 1 and allocated below).
    for (InodeId ino = config.inode_count; ino >= 2; --ino)
        fs->free_inodes_.push_back(ino);

    // Root directory.
    CachedInode root{};
    root.disk.type = static_cast<std::uint16_t>(FileType::kDirectory);
    root.disk.perm = 0755;
    root.disk.nlink = 2;
    root.extents_loaded = true;
    fs->inode_cache_[kRootInode] = root;
    NESC_RETURN_IF_ERROR(fs->store_inode(kRootInode));
    NESC_RETURN_IF_ERROR(fs->commit_meta());
    return fs;
}

util::Result<std::unique_ptr<NestFs>>
NestFs::mount(blk::BlockIo &io)
{
    if (io.block_size() != kFsBlockSize)
        return util::invalid_argument_error("nestfs requires 1 KiB blocks");
    std::vector<std::byte> block(kFsBlockSize);
    NESC_RETURN_IF_ERROR(io.read_blocks(0, 1, block));
    SuperBlock sb;
    std::memcpy(&sb, block.data(), sizeof(sb));
    if (sb.magic != kSuperMagic)
        return util::data_loss_error("bad nestfs superblock magic");
    if (sb.version >= kSuperVersionChecksummed &&
        sb.csum != superblock_crc(sb))
        return util::data_loss_error("nestfs superblock failed its checksum");
    if (sb.total_blocks > io.num_blocks())
        return util::data_loss_error("superblock larger than volume");

    auto fs = std::unique_ptr<NestFs>(new NestFs(io));
    fs->super_ = sb;
    fs->journal_ = std::make_unique<Journal>(
        io, sb.journal_start, std::max<std::uint64_t>(sb.journal_blocks, 1),
        sb.next_txn_id);

    if (sb.journal_mode != static_cast<std::uint32_t>(JournalMode::kNone)) {
        NESC_ASSIGN_OR_RETURN(std::uint64_t replayed, fs->journal_->replay());
        fs->counters_.bump("journal_replayed_txns", replayed);
        fs->super_.next_txn_id = fs->journal_->next_txn_id();
    }

    // Load the block bitmap.
    fs->bitmap_.resize(sb.bitmap_blocks * kFsBlockSize);
    for (std::uint64_t b = 0; b < sb.bitmap_blocks; ++b) {
        NESC_RETURN_IF_ERROR(io.read_blocks(
            sb.bitmap_start + b, 1,
            std::span<std::byte>(
                reinterpret_cast<std::byte *>(fs->bitmap_.data()) +
                    b * kFsBlockSize,
                kFsBlockSize)));
    }
    fs->free_block_count_ = 0;
    for (std::uint64_t b = sb.data_start; b < sb.total_blocks; ++b)
        if (!fs->bitmap_get(b))
            ++fs->free_block_count_;

    // Scan the inode table for free slots.
    for (std::uint64_t b = 0; b < sb.itable_blocks; ++b) {
        NESC_RETURN_IF_ERROR(
            io.read_blocks(sb.itable_start + b, 1, block));
        for (std::uint32_t s = 0; s < kInodesPerBlock; ++s) {
            const InodeId ino =
                static_cast<InodeId>(b * kInodesPerBlock + s + 1);
            if (ino > sb.inode_count)
                break;
            DiskInode inode;
            std::memcpy(&inode, block.data() + s * kInodeSize,
                        sizeof(inode));
            if (inode.type == static_cast<std::uint16_t>(FileType::kNone))
                fs->free_inodes_.push_back(ino);
        }
    }
    std::sort(fs->free_inodes_.begin(), fs->free_inodes_.end(),
              std::greater<>());
    return fs;
}

util::Status
NestFs::unmount()
{
    NESC_RETURN_IF_ERROR(sync());
    super_.clean_shutdown = 1;
    super_.next_txn_id = journal_->next_txn_id();
    if (meta_checksums())
        super_.csum = superblock_crc(super_);
    std::vector<std::byte> block(kFsBlockSize);
    std::memcpy(block.data(), &super_, sizeof(super_));
    NESC_RETURN_IF_ERROR(io_.write_blocks(0, 1, block));
    return io_.flush();
}

// --------------------------------------------------------------------
// Metadata block plumbing
// --------------------------------------------------------------------

util::Status
NestFs::meta_read(std::uint64_t blockno, std::span<std::byte> out)
{
    if (journal_mode() == JournalMode::kNone)
        return io_.read_blocks(blockno, 1, out);
    return journal_->read_through(blockno, out);
}

util::Status
NestFs::meta_write(std::uint64_t blockno, std::span<const std::byte> in)
{
    if (journal_mode() == JournalMode::kNone)
        return io_.write_blocks(blockno, 1, in);
    journal_->stage(blockno, in);
    return util::Status::ok();
}

util::Status
NestFs::commit_meta()
{
    if (journal_mode() == JournalMode::kNone)
        return util::Status::ok();
    NESC_RETURN_IF_ERROR(journal_->commit());
    super_.next_txn_id = journal_->next_txn_id();
    counters_.bump("journal_commits");
    return util::Status::ok();
}

// --------------------------------------------------------------------
// Inode management
// --------------------------------------------------------------------

std::uint64_t
NestFs::inode_block(InodeId ino) const
{
    return super_.itable_start + (ino - 1) / kInodesPerBlock;
}

std::uint32_t
NestFs::inode_slot(InodeId ino) const
{
    return (ino - 1) % kInodesPerBlock;
}

std::uint64_t
NestFs::now_ns() const
{
    return ++mtime_clock_;
}

util::Result<NestFs::CachedInode *>
NestFs::load_inode(InodeId ino)
{
    if (ino == kInvalidInode || ino > super_.inode_count)
        return util::invalid_argument_error("bad inode id " +
                                            std::to_string(ino));
    auto it = inode_cache_.find(ino);
    if (it != inode_cache_.end())
        return &it->second;

    std::vector<std::byte> block(kFsBlockSize);
    NESC_RETURN_IF_ERROR(meta_read(inode_block(ino), block));
    CachedInode cached{};
    std::memcpy(&cached.disk, block.data() + inode_slot(ino) * kInodeSize,
                sizeof(DiskInode));
    if (cached.disk.type == static_cast<std::uint16_t>(FileType::kNone))
        return util::not_found_error("inode " + std::to_string(ino) +
                                     " is free");
    if (meta_checksums() && cached.disk.csum != inode_crc(cached.disk))
        return util::data_loss_error("inode " + std::to_string(ino) +
                                     " failed its checksum");
    auto [pos, inserted] = inode_cache_.emplace(ino, std::move(cached));
    (void)inserted;
    return &pos->second;
}

util::Status
NestFs::store_inode(InodeId ino)
{
    auto it = inode_cache_.find(ino);
    if (it == inode_cache_.end())
        return util::internal_error("store_inode without cached inode");
    if (meta_checksums())
        it->second.disk.csum = inode_crc(it->second.disk);
    std::vector<std::byte> block(kFsBlockSize);
    NESC_RETURN_IF_ERROR(meta_read(inode_block(ino), block));
    std::memcpy(block.data() + inode_slot(ino) * kInodeSize, &it->second.disk,
                sizeof(DiskInode));
    return meta_write(inode_block(ino), block);
}

util::Status
NestFs::load_extents(CachedInode &inode)
{
    if (inode.extents_loaded)
        return util::Status::ok();
    inode.extents.clear();
    const std::uint32_t inline_count = std::min<std::uint32_t>(
        inode.disk.extent_count, kInlineExtents);
    for (std::uint32_t i = 0; i < inline_count; ++i) {
        const DiskExtent &d = inode.disk.extents[i];
        inode.extents.push_back(
            Extent{d.first_vblock, d.nblocks, d.first_pblock});
    }
    std::uint64_t chain = inode.disk.overflow_block;
    std::vector<std::byte> block(kFsBlockSize);
    while (chain != 0) {
        NESC_RETURN_IF_ERROR(meta_read(chain, block));
        ExtentChainHeader header;
        std::memcpy(&header, block.data(), sizeof(header));
        if (header.count > kExtentsPerChainBlock)
            return util::data_loss_error("corrupt extent chain block");
        for (std::uint32_t i = 0; i < header.count; ++i) {
            DiskExtent d;
            std::memcpy(&d,
                        block.data() + sizeof(header) + i * sizeof(DiskExtent),
                        sizeof(d));
            inode.extents.push_back(
                Extent{d.first_vblock, d.nblocks, d.first_pblock});
        }
        chain = header.next_block;
    }
    inode.extents_loaded = true;
    return util::Status::ok();
}

util::Status
NestFs::store_extents(InodeId ino, CachedInode &inode)
{
    // Release the existing overflow chain; it is rebuilt from scratch.
    std::uint64_t chain = inode.disk.overflow_block;
    std::vector<std::byte> block(kFsBlockSize);
    while (chain != 0) {
        NESC_RETURN_IF_ERROR(meta_read(chain, block));
        ExtentChainHeader header;
        std::memcpy(&header, block.data(), sizeof(header));
        NESC_RETURN_IF_ERROR(free_block_range(chain, 1));
        chain = header.next_block;
    }
    inode.disk.overflow_block = 0;

    const std::size_t total = inode.extents.size();
    inode.disk.extent_count = static_cast<std::uint32_t>(total);
    const std::size_t inline_count =
        std::min<std::size_t>(total, kInlineExtents);
    for (std::size_t i = 0; i < inline_count; ++i) {
        inode.disk.extents[i] = DiskExtent{inode.extents[i].first_vblock,
                                           inode.extents[i].nblocks,
                                           inode.extents[i].first_pblock};
    }
    for (std::size_t i = inline_count; i < kInlineExtents; ++i)
        inode.disk.extents[i] = DiskExtent{};

    // Spill the remainder into a freshly allocated chain. Building the
    // list back-to-front wires up next pointers in one pass.
    std::size_t remaining = total - inline_count;
    std::uint64_t next_block = 0;
    while (remaining > 0) {
        const std::size_t in_this =
            (remaining - 1) % kExtentsPerChainBlock + 1;
        const std::size_t first = inline_count + remaining - in_this;
        NESC_ASSIGN_OR_RETURN(Plba chain_block, alloc_block(0));
        std::vector<std::byte> out(kFsBlockSize);
        ExtentChainHeader header{next_block,
                                 static_cast<std::uint32_t>(in_this), 0};
        std::memcpy(out.data(), &header, sizeof(header));
        for (std::size_t i = 0; i < in_this; ++i) {
            const Extent &e = inode.extents[first + i];
            DiskExtent d{e.first_vblock, e.nblocks, e.first_pblock};
            std::memcpy(out.data() + sizeof(header) + i * sizeof(DiskExtent),
                        &d, sizeof(d));
        }
        NESC_RETURN_IF_ERROR(meta_write(chain_block, out));
        next_block = chain_block;
        remaining -= in_this;
    }
    inode.disk.overflow_block = next_block;
    return store_inode(ino);
}

util::Result<InodeId>
NestFs::alloc_inode(FileType type, std::uint16_t perm,
                    const Credentials &creds)
{
    if (free_inodes_.empty())
        return util::resource_exhausted_error("out of inodes");
    const InodeId ino = free_inodes_.back();
    free_inodes_.pop_back();
    CachedInode cached{};
    cached.disk.type = static_cast<std::uint16_t>(type);
    cached.disk.perm = perm;
    cached.disk.uid = creds.uid;
    cached.disk.gid = creds.gid;
    cached.disk.nlink = type == FileType::kDirectory ? 2 : 1;
    cached.disk.mtime_ns = now_ns();
    cached.extents_loaded = true;
    inode_cache_[ino] = cached;
    NESC_RETURN_IF_ERROR(store_inode(ino));
    return ino;
}

util::Status
NestFs::free_inode(InodeId ino)
{
    auto it = inode_cache_.find(ino);
    if (it == inode_cache_.end())
        return util::internal_error("free_inode without cached inode");
    it->second.disk = DiskInode{};
    NESC_RETURN_IF_ERROR(store_inode(ino));
    inode_cache_.erase(it);
    free_inodes_.push_back(ino);
    return util::Status::ok();
}

// --------------------------------------------------------------------
// Block allocation
// --------------------------------------------------------------------

bool
NestFs::bitmap_get(std::uint64_t block) const
{
    return (bitmap_[block / 8] >> (block % 8)) & 1;
}

void
NestFs::bitmap_set(std::uint64_t block, bool value)
{
    if (value)
        bitmap_[block / 8] |= static_cast<std::uint8_t>(1u << (block % 8));
    else
        bitmap_[block / 8] &=
            static_cast<std::uint8_t>(~(1u << (block % 8)));
}

void
NestFs::bitmap_fill(std::uint64_t first, std::uint64_t count)
{
    std::uint64_t b = first;
    const std::uint64_t end = first + count;
    // Head and tail bit by bit; whole bytes in between in one memset.
    while (b < end && (b % 8) != 0)
        bitmap_set(b++, true);
    const std::uint64_t whole = (end - b) / 8;
    std::memset(bitmap_.data() + b / 8, 0xFF, whole);
    b += whole * 8;
    while (b < end)
        bitmap_set(b++, true);
}

std::uint64_t
NestFs::scan_bitmap(std::uint64_t from, std::uint64_t limit,
                    bool allocated) const
{
    // XOR with the bits being skipped turns the sought bits into ones;
    // an all-skip word or byte compares the same on any endianness.
    const std::uint8_t skip_byte = allocated ? 0x00 : 0xFF;
    const std::uint64_t skip_word = allocated ? 0 : ~std::uint64_t{0};
    std::uint64_t b = from;
    // Head: finish the partial byte bit by bit.
    while (b < limit && (b % 8) != 0) {
        if (bitmap_get(b) == allocated)
            return b;
        ++b;
    }
    // Body: skip whole 64-bit words, then land on the first byte that
    // holds a sought bit.
    while (b + 64 <= limit) {
        std::uint64_t word;
        std::memcpy(&word, bitmap_.data() + b / 8, sizeof(word));
        if (word != skip_word)
            break;
        b += 64;
    }
    while (b + 8 <= limit) {
        const std::uint8_t byte = bitmap_[b / 8] ^ skip_byte;
        if (byte != 0)
            return b + std::countr_zero(byte);
        b += 8;
    }
    // Tail: partial final byte.
    while (b < limit) {
        if (bitmap_get(b) == allocated)
            return b;
        ++b;
    }
    return limit;
}

void
NestFs::stage_bitmap_blocks(std::uint64_t first, std::uint64_t count)
{
    constexpr std::uint64_t kBitsPerBlock = 8ULL * kFsBlockSize;
    const std::uint64_t last = (first + count - 1) / kBitsPerBlock;
    for (std::uint64_t index = first / kBitsPerBlock; index <= last;
         ++index) {
        const std::byte *src =
            reinterpret_cast<const std::byte *>(bitmap_.data()) +
            index * kFsBlockSize;
        // Staging through meta_write keeps the on-disk bitmap
        // transactional; with journaling off it writes through
        // immediately.
        (void)meta_write(super_.bitmap_start + index,
                         std::span<const std::byte>(src, kFsBlockSize));
    }
}

util::Result<Plba>
NestFs::alloc_block(Plba goal)
{
    NESC_ASSIGN_OR_RETURN(auto run, alloc_run(goal, 1));
    return run.first;
}

util::Result<std::pair<Plba, std::uint64_t>>
NestFs::alloc_run(Plba goal, std::uint64_t want)
{
    if (free_block_count_ == 0)
        return util::resource_exhausted_error("volume out of blocks");
    if (want == 0)
        return util::invalid_argument_error("alloc_run of zero blocks");
    Plba start = std::max<Plba>(goal, super_.data_start);
    if (start >= super_.total_blocks)
        start = super_.data_start;

    // First-fit from the goal, wrapping once around the data area:
    // scan [start, end) then [data_start, start). The scan skips
    // fully-allocated regions a 64-bit bitmap word at a time — on a
    // fragmented volume the bit-by-bit probe made every allocation
    // O(allocated blocks), which dominated whole-volume setup.
    Plba b = scan_bitmap(start, super_.total_blocks, false);
    if (b == super_.total_blocks)
        b = scan_bitmap(super_.data_start, start, false);
    if (b == start && bitmap_get(b))
        return util::resource_exhausted_error("volume out of blocks");
    // The run ends at the first allocated block, the volume end or the
    // wanted length, whichever comes first. Chaining the next call's
    // goal at its end picks exactly the blocks a block-at-a-time
    // allocator would.
    const std::uint64_t limit =
        want < super_.total_blocks - b ? b + want : super_.total_blocks;
    const std::uint64_t len = scan_bitmap(b + 1, limit, true) - b;
    bitmap_fill(b, len);
    stage_bitmap_blocks(b, len);
    free_block_count_ -= len;
    counters_.bump("blocks_allocated", len);
    return std::pair<Plba, std::uint64_t>(b, len);
}

util::Status
NestFs::free_block_range(Plba first, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        const Plba b = first + i;
        if (b < super_.data_start || b >= super_.total_blocks)
            return util::internal_error("freeing metadata/area block " +
                                        std::to_string(b));
        if (!bitmap_get(b))
            return util::internal_error("double free of block " +
                                        std::to_string(b));
        bitmap_set(b, false);
        stage_bitmap_blocks(b, 1);
        ++free_block_count_;
    }
    counters_.bump("blocks_freed", count);
    return util::Status::ok();
}

} // namespace nesc::fs
