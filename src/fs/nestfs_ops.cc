/**
 * @file
 * nestfs namespace, data-path, attribute and NeSC-integration
 * operations (the storage/metadata plumbing lives in nestfs.cc).
 */
#include <algorithm>
#include <cstring>

#include "fs/extent_map.h"
#include "fs/nestfs.h"
#include "util/units.h"

namespace nesc::fs {

using extent::Extent;
using extent::ExtentList;
using extent::Plba;
using extent::Vlba;

namespace {

util::Result<std::vector<std::string>>
split_path_ops(std::string_view path)
{
    if (path.empty() || path.front() != '/')
        return util::invalid_argument_error("path must be absolute: " +
                                            std::string(path));
    std::vector<std::string> parts;
    std::size_t i = 1;
    while (i < path.size()) {
        std::size_t j = path.find('/', i);
        if (j == std::string_view::npos)
            j = path.size();
        if (j > i) {
            std::string_view comp = path.substr(i, j - i);
            if (comp == "." || comp == "..")
                return util::invalid_argument_error(
                    "'.'/'..' components are not supported");
            if (comp.size() > kMaxNameLen)
                return util::invalid_argument_error("name too long: " +
                                                    std::string(comp));
            parts.emplace_back(comp);
        }
        i = j + 1;
    }
    return parts;
}

} // namespace

// --------------------------------------------------------------------
// Permission checks
// --------------------------------------------------------------------

util::Status
NestFs::check_access(InodeId ino, Access access, const Credentials &creds)
{
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(ino));
    if (creds.is_superuser())
        return util::Status::ok();
    const std::uint16_t perm = inode->disk.perm;
    unsigned shift;
    if (creds.uid == inode->disk.uid)
        shift = 6;
    else if (creds.gid == inode->disk.gid)
        shift = 3;
    else
        shift = 0;
    const unsigned need = access == Access::kRead ? 4u : 2u;
    if (((perm >> shift) & need) != need) {
        return util::permission_denied_error(
            "inode " + std::to_string(ino) + ": uid " +
            std::to_string(creds.uid) + " lacks " +
            (access == Access::kRead ? "read" : "write") + " permission");
    }
    return util::Status::ok();
}

// --------------------------------------------------------------------
// Directories
// --------------------------------------------------------------------

util::Result<InodeId>
NestFs::dir_lookup(InodeId dir, std::string_view name)
{
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(dir));
    if (inode->disk.type != static_cast<std::uint16_t>(FileType::kDirectory))
        return util::invalid_argument_error("not a directory");
    NESC_RETURN_IF_ERROR(load_extents(*inode));

    const std::uint64_t nblocks = inode->disk.size_bytes / kFsBlockSize;
    std::vector<std::byte> block(kFsBlockSize);
    for (std::uint64_t vb = 0; vb < nblocks; ++vb) {
        auto pblock = map_lookup(inode->extents, vb);
        if (!pblock)
            return util::data_loss_error("directory with a hole");
        NESC_RETURN_IF_ERROR(meta_read(*pblock, block));
        for (std::uint32_t s = 0; s < kDirEntriesPerBlock; ++s) {
            DirEntryRecord rec;
            std::memcpy(&rec, block.data() + s * sizeof(rec), sizeof(rec));
            if (rec.ino == kInvalidInode)
                continue;
            if (std::string_view(rec.name, rec.name_len) == name)
                return rec.ino;
        }
    }
    return util::not_found_error("no entry '" + std::string(name) + "'");
}

util::Status
NestFs::dir_add(InodeId dir, std::string_view name, InodeId target,
                FileType type)
{
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(dir));
    NESC_RETURN_IF_ERROR(load_extents(*inode));

    DirEntryRecord rec{};
    rec.ino = target;
    rec.name_len = static_cast<std::uint8_t>(name.size());
    rec.file_type = static_cast<std::uint8_t>(type);
    std::memcpy(rec.name, name.data(), name.size());

    // Find a free slot in the existing blocks.
    const std::uint64_t nblocks = inode->disk.size_bytes / kFsBlockSize;
    std::vector<std::byte> block(kFsBlockSize);
    for (std::uint64_t vb = 0; vb < nblocks; ++vb) {
        auto pblock = map_lookup(inode->extents, vb);
        if (!pblock)
            return util::data_loss_error("directory with a hole");
        NESC_RETURN_IF_ERROR(meta_read(*pblock, block));
        for (std::uint32_t s = 0; s < kDirEntriesPerBlock; ++s) {
            DirEntryRecord existing;
            std::memcpy(&existing, block.data() + s * sizeof(existing),
                        sizeof(existing));
            if (existing.ino != kInvalidInode)
                continue;
            std::memcpy(block.data() + s * sizeof(rec), &rec, sizeof(rec));
            return meta_write(*pblock, block);
        }
    }

    // Grow the directory by one block.
    NESC_RETURN_IF_ERROR(ensure_allocated(*inode, nblocks,
                                          /*zero_fill=*/true));
    inode->disk.size_bytes += kFsBlockSize;
    inode->disk.mtime_ns = now_ns();
    NESC_RETURN_IF_ERROR(store_extents(dir, *inode));
    auto pblock = map_lookup(inode->extents, nblocks);
    if (!pblock)
        return util::internal_error("dir grow failed to map block");
    std::fill(block.begin(), block.end(), std::byte{0});
    std::memcpy(block.data(), &rec, sizeof(rec));
    return meta_write(*pblock, block);
}

util::Status
NestFs::dir_remove(InodeId dir, std::string_view name)
{
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(dir));
    NESC_RETURN_IF_ERROR(load_extents(*inode));
    const std::uint64_t nblocks = inode->disk.size_bytes / kFsBlockSize;
    std::vector<std::byte> block(kFsBlockSize);
    for (std::uint64_t vb = 0; vb < nblocks; ++vb) {
        auto pblock = map_lookup(inode->extents, vb);
        if (!pblock)
            return util::data_loss_error("directory with a hole");
        NESC_RETURN_IF_ERROR(meta_read(*pblock, block));
        for (std::uint32_t s = 0; s < kDirEntriesPerBlock; ++s) {
            DirEntryRecord rec;
            std::memcpy(&rec, block.data() + s * sizeof(rec), sizeof(rec));
            if (rec.ino == kInvalidInode ||
                std::string_view(rec.name, rec.name_len) != name)
                continue;
            rec = DirEntryRecord{};
            std::memcpy(block.data() + s * sizeof(rec), &rec, sizeof(rec));
            return meta_write(*pblock, block);
        }
    }
    return util::not_found_error("no entry '" + std::string(name) + "'");
}

util::Result<bool>
NestFs::dir_empty(InodeId dir)
{
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(dir));
    NESC_RETURN_IF_ERROR(load_extents(*inode));
    const std::uint64_t nblocks = inode->disk.size_bytes / kFsBlockSize;
    std::vector<std::byte> block(kFsBlockSize);
    for (std::uint64_t vb = 0; vb < nblocks; ++vb) {
        auto pblock = map_lookup(inode->extents, vb);
        if (!pblock)
            return util::data_loss_error("directory with a hole");
        NESC_RETURN_IF_ERROR(meta_read(*pblock, block));
        for (std::uint32_t s = 0; s < kDirEntriesPerBlock; ++s) {
            DirEntryRecord rec;
            std::memcpy(&rec, block.data() + s * sizeof(rec), sizeof(rec));
            if (rec.ino != kInvalidInode)
                return false;
        }
    }
    return true;
}

// --------------------------------------------------------------------
// Paths & namespace
// --------------------------------------------------------------------

util::Result<InodeId>
NestFs::resolve(std::string_view path)
{
    NESC_ASSIGN_OR_RETURN(auto parts, split_path_ops(path));
    InodeId current = kRootInode;
    for (const std::string &name : parts) {
        NESC_ASSIGN_OR_RETURN(current, dir_lookup(current, name));
    }
    return current;
}

util::Result<NestFs::ResolvedParent>
NestFs::resolve_parent(std::string_view path)
{
    NESC_ASSIGN_OR_RETURN(auto parts, split_path_ops(path));
    if (parts.empty())
        return util::invalid_argument_error("path names the root");
    InodeId current = kRootInode;
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
        NESC_ASSIGN_OR_RETURN(current, dir_lookup(current, parts[i]));
    }
    return ResolvedParent{current, parts.back()};
}

util::Result<InodeId>
NestFs::create(std::string_view path, std::uint16_t perm,
               const Credentials &creds)
{
    NESC_ASSIGN_OR_RETURN(auto rp, resolve_parent(path));
    NESC_RETURN_IF_ERROR(check_access(rp.parent, Access::kWrite, creds));
    auto existing = dir_lookup(rp.parent, rp.leaf);
    if (existing.is_ok())
        return util::already_exists_error(std::string(path) + " exists");
    NESC_ASSIGN_OR_RETURN(InodeId ino,
                          alloc_inode(FileType::kRegular, perm, creds));
    NESC_RETURN_IF_ERROR(dir_add(rp.parent, rp.leaf, ino,
                                 FileType::kRegular));
    NESC_RETURN_IF_ERROR(commit_meta());
    counters_.bump("files_created");
    return ino;
}

util::Result<InodeId>
NestFs::mkdir(std::string_view path, std::uint16_t perm,
              const Credentials &creds)
{
    NESC_ASSIGN_OR_RETURN(auto rp, resolve_parent(path));
    NESC_RETURN_IF_ERROR(check_access(rp.parent, Access::kWrite, creds));
    auto existing = dir_lookup(rp.parent, rp.leaf);
    if (existing.is_ok())
        return util::already_exists_error(std::string(path) + " exists");
    NESC_ASSIGN_OR_RETURN(InodeId ino,
                          alloc_inode(FileType::kDirectory, perm, creds));
    NESC_RETURN_IF_ERROR(dir_add(rp.parent, rp.leaf, ino,
                                 FileType::kDirectory));
    NESC_RETURN_IF_ERROR(commit_meta());
    return ino;
}

util::Result<InodeId>
NestFs::mkdir_p(std::string_view path, std::uint16_t perm,
                const Credentials &creds)
{
    NESC_ASSIGN_OR_RETURN(auto parts, split_path_ops(path));
    InodeId current = kRootInode;
    std::string prefix;
    for (const std::string &name : parts) {
        prefix += '/';
        prefix += name;
        auto found = dir_lookup(current, name);
        if (found.is_ok()) {
            current = found.value();
            continue;
        }
        if (found.status().code() != util::ErrorCode::kNotFound)
            return found.status();
        NESC_ASSIGN_OR_RETURN(current, mkdir(prefix, perm, creds));
    }
    return current;
}

util::Status
NestFs::unlink(std::string_view path, const Credentials &creds)
{
    NESC_ASSIGN_OR_RETURN(auto rp, resolve_parent(path));
    NESC_RETURN_IF_ERROR(check_access(rp.parent, Access::kWrite, creds));
    NESC_ASSIGN_OR_RETURN(InodeId ino, dir_lookup(rp.parent, rp.leaf));
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(ino));
    if (inode->disk.type != static_cast<std::uint16_t>(FileType::kRegular))
        return util::invalid_argument_error("unlink of a directory");
    NESC_RETURN_IF_ERROR(dir_remove(rp.parent, rp.leaf));
    if (--inode->disk.nlink == 0) {
        NESC_RETURN_IF_ERROR(load_extents(*inode));
        for (const Extent &e : inode->extents)
            NESC_RETURN_IF_ERROR(free_block_range(e.first_pblock,
                                                  e.nblocks));
        inode->extents.clear();
        NESC_RETURN_IF_ERROR(store_extents(ino, *inode));
        NESC_RETURN_IF_ERROR(free_inode(ino));
    } else {
        NESC_RETURN_IF_ERROR(store_inode(ino));
    }
    NESC_RETURN_IF_ERROR(commit_meta());
    counters_.bump("files_unlinked");
    return util::Status::ok();
}

util::Status
NestFs::rename(std::string_view from, std::string_view to,
               const Credentials &creds)
{
    NESC_ASSIGN_OR_RETURN(auto src, resolve_parent(from));
    NESC_ASSIGN_OR_RETURN(auto dst, resolve_parent(to));
    NESC_RETURN_IF_ERROR(check_access(src.parent, Access::kWrite, creds));
    NESC_RETURN_IF_ERROR(check_access(dst.parent, Access::kWrite, creds));
    NESC_ASSIGN_OR_RETURN(InodeId ino, dir_lookup(src.parent, src.leaf));
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(ino));
    const auto type = static_cast<FileType>(inode->disk.type);

    if (type == FileType::kDirectory) {
        // Reject moving a directory under itself (would orphan the
        // subtree). Walk up from the destination parent.
        InodeId cursor = dst.parent;
        // Bounded walk: re-resolve the destination path's prefix chain
        // by path instead of parent pointers (nestfs stores none), so
        // simply compare resolved prefixes.
        if (to.size() > from.size() &&
            to.substr(0, from.size()) == from &&
            to[from.size()] == '/') {
            return util::invalid_argument_error(
                "cannot move a directory into itself");
        }
        (void)cursor;
    }

    auto existing = dir_lookup(dst.parent, dst.leaf);
    if (existing.is_ok()) {
        if (existing.value() == ino)
            return util::Status::ok(); // rename to itself
        NESC_ASSIGN_OR_RETURN(CachedInode * target,
                              load_inode(existing.value()));
        if (target->disk.type ==
            static_cast<std::uint16_t>(FileType::kDirectory)) {
            return util::failed_precondition_error(
                "rename target is a directory");
        }
        if (type == FileType::kDirectory) {
            return util::failed_precondition_error(
                "directory cannot replace a file");
        }
        // POSIX: silently replace the target file.
        NESC_RETURN_IF_ERROR(unlink(to, creds));
    }

    NESC_RETURN_IF_ERROR(dir_remove(src.parent, src.leaf));
    NESC_RETURN_IF_ERROR(dir_add(dst.parent, dst.leaf, ino, type));
    inode->disk.mtime_ns = now_ns();
    NESC_RETURN_IF_ERROR(store_inode(ino));
    NESC_RETURN_IF_ERROR(commit_meta());
    counters_.bump("renames");
    return util::Status::ok();
}

util::Status
NestFs::rmdir(std::string_view path, const Credentials &creds)
{
    NESC_ASSIGN_OR_RETURN(auto rp, resolve_parent(path));
    NESC_RETURN_IF_ERROR(check_access(rp.parent, Access::kWrite, creds));
    NESC_ASSIGN_OR_RETURN(InodeId ino, dir_lookup(rp.parent, rp.leaf));
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(ino));
    if (inode->disk.type != static_cast<std::uint16_t>(FileType::kDirectory))
        return util::invalid_argument_error("rmdir of a file");
    NESC_ASSIGN_OR_RETURN(bool empty, dir_empty(ino));
    if (!empty)
        return util::failed_precondition_error("directory not empty");
    NESC_RETURN_IF_ERROR(dir_remove(rp.parent, rp.leaf));
    NESC_RETURN_IF_ERROR(load_extents(*inode));
    for (const Extent &e : inode->extents)
        NESC_RETURN_IF_ERROR(free_block_range(e.first_pblock, e.nblocks));
    inode->extents.clear();
    NESC_RETURN_IF_ERROR(store_extents(ino, *inode));
    NESC_RETURN_IF_ERROR(free_inode(ino));
    return commit_meta();
}

util::Result<std::vector<DirEntry>>
NestFs::readdir(std::string_view path)
{
    NESC_ASSIGN_OR_RETURN(InodeId dir, resolve(path));
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(dir));
    if (inode->disk.type != static_cast<std::uint16_t>(FileType::kDirectory))
        return util::invalid_argument_error("not a directory");
    NESC_RETURN_IF_ERROR(load_extents(*inode));
    std::vector<DirEntry> out;
    const std::uint64_t nblocks = inode->disk.size_bytes / kFsBlockSize;
    std::vector<std::byte> block(kFsBlockSize);
    for (std::uint64_t vb = 0; vb < nblocks; ++vb) {
        auto pblock = map_lookup(inode->extents, vb);
        if (!pblock)
            return util::data_loss_error("directory with a hole");
        NESC_RETURN_IF_ERROR(meta_read(*pblock, block));
        for (std::uint32_t s = 0; s < kDirEntriesPerBlock; ++s) {
            DirEntryRecord rec;
            std::memcpy(&rec, block.data() + s * sizeof(rec), sizeof(rec));
            if (rec.ino == kInvalidInode)
                continue;
            out.push_back(DirEntry{rec.ino,
                                   static_cast<FileType>(rec.file_type),
                                   std::string(rec.name, rec.name_len)});
        }
    }
    return out;
}

// --------------------------------------------------------------------
// Data path
// --------------------------------------------------------------------

util::Status
NestFs::ensure_allocated(CachedInode &inode, std::uint64_t vblock,
                         bool zero_fill)
{
    if (map_lookup(inode.extents, vblock).has_value())
        return util::Status::ok();
    // Goal: physically after the previous file block for contiguity.
    Plba goal = 0;
    if (auto prev = map_lookup(inode.extents, vblock ? vblock - 1 : 0))
        goal = *prev + 1;
    NESC_ASSIGN_OR_RETURN(Plba pblock, alloc_block(goal));
    map_insert_block(inode.extents, vblock, pblock);
    if (zero_fill) {
        std::vector<std::byte> zero(kFsBlockSize);
        NESC_RETURN_IF_ERROR(io_.write_blocks(pblock, 1, zero));
    }
    return util::Status::ok();
}

util::Result<std::uint64_t>
NestFs::read(InodeId ino, std::uint64_t offset, std::span<std::byte> out,
             const Credentials &creds)
{
    NESC_RETURN_IF_ERROR(check_access(ino, Access::kRead, creds));
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(ino));
    NESC_RETURN_IF_ERROR(load_extents(*inode));
    if (offset >= inode->disk.size_bytes)
        return std::uint64_t{0};
    const std::uint64_t to_read =
        std::min<std::uint64_t>(out.size(), inode->disk.size_bytes - offset);

    const bool journal_data = journal_mode() == JournalMode::kData;
    std::uint64_t done = 0;
    std::vector<std::byte> scratch(kFsBlockSize);
    while (done < to_read) {
        const std::uint64_t pos = offset + done;
        const Vlba vblock = pos / kFsBlockSize;
        const std::uint64_t in_block = pos % kFsBlockSize;
        auto ext = map_lookup_extent(inode->extents, vblock);
        if (!ext) {
            // Hole: zero-fill to the end of the unmapped stretch (or
            // just this block; per-block is simple and correct).
            const std::uint64_t n = std::min<std::uint64_t>(
                kFsBlockSize - in_block, to_read - done);
            std::memset(out.data() + done, 0, n);
            done += n;
            continue;
        }
        // Contiguous mapped run starting at vblock, limited by extent.
        const std::uint64_t run_blocks = ext->end_vblock() - vblock;
        const Plba pblock = ext->translate(vblock);
        if (in_block == 0 && to_read - done >= kFsBlockSize &&
            !journal_data) {
            const std::uint64_t whole =
                std::min<std::uint64_t>(run_blocks,
                                        (to_read - done) / kFsBlockSize);
            NESC_RETURN_IF_ERROR(io_.read_blocks(
                pblock, static_cast<std::uint32_t>(whole),
                out.subspan(done, whole * kFsBlockSize)));
            done += whole * kFsBlockSize;
            continue;
        }
        // Partial block (or data-journal readthrough): one block RMW.
        if (journal_data)
            NESC_RETURN_IF_ERROR(meta_read(pblock, scratch));
        else
            NESC_RETURN_IF_ERROR(io_.read_blocks(pblock, 1, scratch));
        const std::uint64_t n = std::min<std::uint64_t>(
            kFsBlockSize - in_block, to_read - done);
        std::memcpy(out.data() + done, scratch.data() + in_block, n);
        done += n;
    }
    counters_.bump("bytes_read", to_read);
    return to_read;
}

util::Status
NestFs::write(InodeId ino, std::uint64_t offset,
              std::span<const std::byte> in, const Credentials &creds)
{
    NESC_RETURN_IF_ERROR(check_access(ino, Access::kWrite, creds));
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(ino));
    if (inode->disk.type == static_cast<std::uint16_t>(FileType::kDirectory))
        return util::invalid_argument_error("write to a directory");
    NESC_RETURN_IF_ERROR(load_extents(*inode));

    const bool journal_data = journal_mode() == JournalMode::kData;
    std::uint64_t done = 0;
    std::vector<std::byte> scratch(kFsBlockSize);
    while (done < in.size()) {
        const std::uint64_t pos = offset + done;
        const Vlba vblock = pos / kFsBlockSize;
        const std::uint64_t in_block = pos % kFsBlockSize;
        const bool was_mapped =
            map_lookup(inode->extents, vblock).has_value();
        NESC_RETURN_IF_ERROR(
            ensure_allocated(*inode, vblock, /*zero_fill=*/false));
        auto ext = map_lookup_extent(inode->extents, vblock);
        const Plba pblock = ext->translate(vblock);

        if (in_block == 0 && in.size() - done >= kFsBlockSize) {
            // Full-block path; batch the contiguous mapped run as long
            // as the following blocks are also full overwrites. The
            // run must be re-checked block by block because allocation
            // happens lazily; only already-contiguous spans batch.
            std::uint64_t whole = std::min<std::uint64_t>(
                ext->end_vblock() - vblock, (in.size() - done) / kFsBlockSize);
            if (journal_data) {
                for (std::uint64_t b = 0; b < whole; ++b) {
                    NESC_RETURN_IF_ERROR(meta_write(
                        pblock + b,
                        in.subspan(done + b * kFsBlockSize, kFsBlockSize)));
                }
            } else {
                NESC_RETURN_IF_ERROR(io_.write_blocks(
                    pblock, static_cast<std::uint32_t>(whole),
                    in.subspan(done, whole * kFsBlockSize)));
            }
            done += whole * kFsBlockSize;
        } else {
            // Partial block: read-modify-write (zero base if fresh).
            const bool need_read =
                was_mapped &&
                (pos < inode->disk.size_bytes || in_block != 0);
            if (need_read) {
                if (journal_data)
                    NESC_RETURN_IF_ERROR(meta_read(pblock, scratch));
                else
                    NESC_RETURN_IF_ERROR(io_.read_blocks(pblock, 1,
                                                         scratch));
            } else {
                std::fill(scratch.begin(), scratch.end(), std::byte{0});
            }
            const std::uint64_t n = std::min<std::uint64_t>(
                kFsBlockSize - in_block, in.size() - done);
            std::memcpy(scratch.data() + in_block, in.data() + done, n);
            if (journal_data)
                NESC_RETURN_IF_ERROR(meta_write(pblock, scratch));
            else
                NESC_RETURN_IF_ERROR(io_.write_blocks(pblock, 1, scratch));
            done += n;
        }
    }

    inode->disk.size_bytes =
        std::max<std::uint64_t>(inode->disk.size_bytes, offset + in.size());
    inode->disk.mtime_ns = now_ns();
    NESC_RETURN_IF_ERROR(store_extents(ino, *inode));
    NESC_RETURN_IF_ERROR(commit_meta());
    counters_.bump("bytes_written", in.size());
    return util::Status::ok();
}

util::Status
NestFs::truncate(InodeId ino, std::uint64_t new_size,
                 const Credentials &creds)
{
    NESC_RETURN_IF_ERROR(check_access(ino, Access::kWrite, creds));
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(ino));
    NESC_RETURN_IF_ERROR(load_extents(*inode));
    if (new_size < inode->disk.size_bytes) {
        // Free whole blocks past the new end.
        const Vlba keep_blocks = util::ceil_div(new_size, kFsBlockSize);
        std::vector<std::pair<Plba, std::uint64_t>> freed;
        map_remove_from(inode->extents, keep_blocks, freed);
        for (const auto &[first, count] : freed)
            NESC_RETURN_IF_ERROR(free_block_range(first, count));
        // Zero the tail of a straddled last block so a later grow
        // reads zeros (POSIX).
        const std::uint64_t tail = new_size % kFsBlockSize;
        if (tail != 0) {
            if (auto pblock =
                    map_lookup(inode->extents, new_size / kFsBlockSize)) {
                std::vector<std::byte> scratch(kFsBlockSize);
                NESC_RETURN_IF_ERROR(io_.read_blocks(*pblock, 1, scratch));
                std::memset(scratch.data() + tail, 0, kFsBlockSize - tail);
                NESC_RETURN_IF_ERROR(io_.write_blocks(*pblock, 1, scratch));
            }
        }
    }
    inode->disk.size_bytes = new_size;
    inode->disk.mtime_ns = now_ns();
    NESC_RETURN_IF_ERROR(store_extents(ino, *inode));
    return commit_meta();
}

util::Status
NestFs::fsync(InodeId ino)
{
    (void)ino; // nestfs keeps one running transaction for all files
    NESC_RETURN_IF_ERROR(commit_meta());
    return io_.flush();
}

util::Status
NestFs::sync()
{
    NESC_RETURN_IF_ERROR(commit_meta());
    return io_.flush();
}

// --------------------------------------------------------------------
// Attributes
// --------------------------------------------------------------------

util::Result<Stat>
NestFs::stat(InodeId ino)
{
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(ino));
    Stat st;
    st.ino = ino;
    st.type = static_cast<FileType>(inode->disk.type);
    st.perm = inode->disk.perm;
    st.uid = inode->disk.uid;
    st.gid = inode->disk.gid;
    st.nlink = inode->disk.nlink;
    st.size_bytes = inode->disk.size_bytes;
    st.extent_count = inode->disk.extent_count;
    st.mtime_ns = inode->disk.mtime_ns;
    return st;
}

util::Result<Stat>
NestFs::stat_path(std::string_view path)
{
    NESC_ASSIGN_OR_RETURN(InodeId ino, resolve(path));
    return stat(ino);
}

util::Status
NestFs::chmod(InodeId ino, std::uint16_t perm, const Credentials &creds)
{
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(ino));
    if (!creds.is_superuser() && creds.uid != inode->disk.uid)
        return util::permission_denied_error("chmod: not the owner");
    inode->disk.perm = perm & 0777;
    NESC_RETURN_IF_ERROR(store_inode(ino));
    return commit_meta();
}

util::Status
NestFs::chown(InodeId ino, std::uint16_t uid, std::uint16_t gid,
              const Credentials &creds)
{
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(ino));
    if (!creds.is_superuser())
        return util::permission_denied_error("chown requires superuser");
    inode->disk.uid = uid;
    inode->disk.gid = gid;
    NESC_RETURN_IF_ERROR(store_inode(ino));
    return commit_meta();
}

// --------------------------------------------------------------------
// NeSC integration
// --------------------------------------------------------------------

util::Result<ExtentList>
NestFs::fiemap(InodeId ino)
{
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(ino));
    NESC_RETURN_IF_ERROR(load_extents(*inode));
    counters_.bump("fiemap_queries");
    return inode->extents;
}

util::Status
NestFs::allocate_range(InodeId ino, std::uint64_t first_vblock,
                       std::uint64_t nblocks)
{
    NESC_ASSIGN_OR_RETURN(CachedInode * inode, load_inode(ino));
    NESC_RETURN_IF_ERROR(load_extents(*inode));
    ExtentList &extents = inode->extents;
    const std::uint64_t end = first_vblock + nblocks;
    // The runs this call maps, so a failure can give them all back.
    ExtentList runs;
    std::uint64_t vb = first_vblock;
    while (vb < end) {
        if (auto mapped = map_lookup_extent(extents, vb)) {
            vb = mapped->end_vblock();
            continue;
        }
        // An unmapped gap, up to the next mapped block or the range
        // end. Its goal is the block after its predecessor's, as in
        // ensure_allocated; each run's successor chains from its end.
        const std::uint64_t gap_end =
            std::min(end, map_next_mapped(extents, vb).value_or(end));
        Plba goal = 0;
        if (auto prev = map_lookup(extents, vb ? vb - 1 : 0))
            goal = *prev + 1;
        while (vb < gap_end) {
            auto run = alloc_run(goal, gap_end - vb);
            if (!run.is_ok()) {
                // Give back what this call got: neither the inode's
                // size nor its on-disk extents ever saw these runs.
                std::vector<std::pair<Plba, std::uint64_t>> freed;
                for (const Extent &r : runs) {
                    map_remove_from(extents, r.first_vblock, freed,
                                    r.end_vblock());
                    NESC_RETURN_IF_ERROR(
                        free_block_range(r.first_pblock, r.nblocks));
                }
                return run.status();
            }
            runs.push_back(Extent{vb, run->second, run->first});
            map_insert_extent(extents, runs.back());
            vb += run->second;
            goal = run->first + run->second;
        }
    }
    inode->disk.size_bytes =
        std::max<std::uint64_t>(inode->disk.size_bytes,
                                (first_vblock + nblocks) * kFsBlockSize);
    inode->disk.mtime_ns = now_ns();
    NESC_RETURN_IF_ERROR(store_extents(ino, *inode));
    NESC_RETURN_IF_ERROR(commit_meta());
    counters_.bump("allocate_range_calls");
    return util::Status::ok();
}

} // namespace nesc::fs
