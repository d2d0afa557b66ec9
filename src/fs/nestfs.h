/**
 * @file
 * nestfs: the extent-based filesystem used by the hypervisor (and by
 * guests, nested inside their virtual disks).
 *
 * Feature set, chosen to match exactly what the NeSC design consumes
 * from a host filesystem (paper §II, §IV):
 *  - hierarchical namespace with UNIX-style permissions,
 *  - extent-based allocation with lazy allocation (sparse files /
 *    holes read as zeros, POSIX semantics),
 *  - a FIEMAP-style query returning a file's extent list, which the PF
 *    driver converts into the device's extent-tree ABI,
 *  - explicit range allocation (fallocate) for servicing NeSC
 *    write-miss interrupts,
 *  - write-ahead metadata journaling (optionally data journaling, to
 *    reproduce the nested-journaling discussion).
 *
 * All volume access goes through a blk::BlockIo, so the same
 * filesystem runs over a raw device, a full OS stack with caches, or a
 * virtualized disk — whatever the experiment calls for.
 */
#ifndef NESC_FS_NESTFS_H
#define NESC_FS_NESTFS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "blocklayer/block_io.h"
#include "extent/types.h"
#include "fs/journal.h"
#include "fs/layout.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace nesc::fs {

/** Caller identity for permission checks; uid 0 is the superuser. */
struct Credentials {
    std::uint16_t uid = 0;
    std::uint16_t gid = 0;

    bool is_superuser() const { return uid == 0; }
};

/** Requested access kind for permission checks. */
enum class Access { kRead, kWrite };

/** stat() result. */
struct Stat {
    InodeId ino = kInvalidInode;
    FileType type = FileType::kNone;
    std::uint16_t perm = 0;
    std::uint16_t uid = 0;
    std::uint16_t gid = 0;
    std::uint32_t nlink = 0;
    std::uint64_t size_bytes = 0;
    std::uint32_t extent_count = 0;
    std::uint64_t mtime_ns = 0;
};

/** readdir() entry. */
struct DirEntry {
    InodeId ino;
    FileType type;
    std::string name;
};

/** format() parameters. */
struct NestFsConfig {
    std::uint32_t inode_count = 1024;
    JournalMode journal_mode = JournalMode::kMetadata;
    std::uint64_t journal_blocks = 128;
    /**
     * Format a version-2 volume whose superblock and inodes carry
     * CRC32C self-checksums, verified at mount/load and by fsck. Off
     * by default: version-1 volumes are byte-identical to before.
     */
    bool meta_checksums = false;
};

/** The filesystem; construct via format() or mount(). */
class NestFs {
  public:
    /** Writes a fresh filesystem onto @p io and mounts it. */
    static util::Result<std::unique_ptr<NestFs>>
    format(blk::BlockIo &io, const NestFsConfig &config = {});

    /**
     * Mounts an existing filesystem: replays the journal, then loads
     * the allocation state.
     */
    static util::Result<std::unique_ptr<NestFs>> mount(blk::BlockIo &io);

    /** Commits pending metadata and marks a clean shutdown. */
    util::Status unmount();

    // --- Namespace operations (paths are absolute, e.g. "/a/b") -----

    /** Creates a regular file; parent directories must exist. */
    util::Result<InodeId> create(std::string_view path, std::uint16_t perm,
                                 const Credentials &creds = {});

    /** Creates a directory. */
    util::Result<InodeId> mkdir(std::string_view path, std::uint16_t perm,
                                const Credentials &creds = {});

    /** Creates a directory and any missing ancestors (mkdir -p). */
    util::Result<InodeId> mkdir_p(std::string_view path, std::uint16_t perm,
                                  const Credentials &creds = {});

    /** Resolves a path to an inode. */
    util::Result<InodeId> resolve(std::string_view path);

    /** Removes a regular file (frees its blocks when nlink hits 0). */
    util::Status unlink(std::string_view path, const Credentials &creds = {});

    /**
     * Atomically moves @p from to @p to (files or directories). An
     * existing regular file at @p to is replaced, POSIX-style; an
     * existing directory target is rejected. Renaming a directory
     * into its own subtree is rejected.
     */
    util::Status rename(std::string_view from, std::string_view to,
                        const Credentials &creds = {});

    /** Removes an empty directory. */
    util::Status rmdir(std::string_view path, const Credentials &creds = {});

    /** Lists a directory. */
    util::Result<std::vector<DirEntry>> readdir(std::string_view path);

    // --- File data ----------------------------------------------------

    /**
     * Reads up to @p out.size() bytes at @p offset. Returns the byte
     * count actually read (short at EOF); holes read as zeros.
     */
    util::Result<std::uint64_t> read(InodeId ino, std::uint64_t offset,
                                     std::span<std::byte> out,
                                     const Credentials &creds = {});

    /**
     * Writes @p in at @p offset, allocating blocks lazily and growing
     * the file as needed. Writing beyond EOF leaves a hole.
     */
    util::Status write(InodeId ino, std::uint64_t offset,
                       std::span<const std::byte> in,
                       const Credentials &creds = {});

    /** Shrinks or (sparsely) grows the file to @p new_size bytes. */
    util::Status truncate(InodeId ino, std::uint64_t new_size,
                          const Credentials &creds = {});

    /** Commits the journal for this file's metadata (and all other
     * staged metadata; nestfs keeps a single running transaction). */
    util::Status fsync(InodeId ino);

    /** Commits all staged metadata. */
    util::Status sync();

    // --- Attributes ----------------------------------------------------

    util::Result<Stat> stat(InodeId ino);
    util::Result<Stat> stat_path(std::string_view path);
    util::Status chmod(InodeId ino, std::uint16_t perm,
                       const Credentials &creds = {});
    util::Status chown(InodeId ino, std::uint16_t uid, std::uint16_t gid,
                       const Credentials &creds = {});

    /** Permission check as performed on open(2). */
    util::Status check_access(InodeId ino, Access access,
                              const Credentials &creds);

    // --- NeSC integration ----------------------------------------------

    /**
     * FIEMAP: the file's extent list (fs-block granular). This is what
     * the hypervisor converts into a VF's hardware extent tree.
     */
    util::Result<extent::ExtentList> fiemap(InodeId ino);

    /**
     * fallocate-style explicit allocation of [first_vblock,
     * +nblocks), used to provision images and to service NeSC
     * write-miss interrupts. Each unmapped gap is allocated a run at a
     * time, first-fit from the block after the gap's predecessor. The
     * blocks are mapped but not zeroed, modelling ext4 unwritten
     * extents (the device overwrites them immediately).
     */
    util::Status allocate_range(InodeId ino, std::uint64_t first_vblock,
                                std::uint64_t nblocks);

    // --- Consistency checking --------------------------------------------

    /** fsck() findings. */
    struct FsckReport {
        bool clean = true;
        std::uint64_t files = 0;
        std::uint64_t directories = 0;
        std::uint64_t referenced_blocks = 0;
        std::uint64_t leaked_blocks = 0;   ///< allocated but unreferenced
        std::uint64_t orphan_inodes = 0;   ///< live but unreachable
        std::uint64_t checksum_errors = 0; ///< v2 metadata CRC mismatches
        std::vector<std::string> errors;   ///< capped at 32 messages
    };

    /**
     * Full-volume consistency check (e2fsck-style): walks the
     * namespace from the root, validates every inode's extent map
     * (sorted, in-bounds, allocated, no double references), accounts
     * every allocated block, and detects orphans and leaks. Used by
     * the crash-recovery property tests.
     */
    util::Result<FsckReport> fsck();

    // --- Introspection --------------------------------------------------

    std::uint64_t free_blocks() const { return free_block_count_; }
    std::uint64_t free_inodes() const { return free_inodes_.size(); }
    const SuperBlock &superblock() const { return super_; }
    /** True on version-2 volumes: metadata carries self-checksums. */
    bool meta_checksums() const
    {
        return super_.version >= kSuperVersionChecksummed;
    }
    JournalMode journal_mode() const
    {
        return static_cast<JournalMode>(super_.journal_mode);
    }
    /** Switches the journaling mode at runtime (nested-FS tuning). */
    void set_journal_mode(JournalMode mode)
    {
        super_.journal_mode = static_cast<std::uint32_t>(mode);
    }
    const obs::MetricsRegistry &counters() const { return counters_; }
    Journal &journal() { return *journal_; }

  private:
    explicit NestFs(blk::BlockIo &io) : io_(io) {}

    // Metadata block access routed through the journal staging area.
    util::Status meta_read(std::uint64_t blockno, std::span<std::byte> out);
    util::Status meta_write(std::uint64_t blockno,
                            std::span<const std::byte> in);
    util::Status commit_meta();

    // Inode helpers. Cached inodes carry their full extent list.
    struct CachedInode {
        DiskInode disk;
        extent::ExtentList extents;
        bool extents_loaded = false;
    };
    util::Result<CachedInode *> load_inode(InodeId ino);
    util::Status store_inode(InodeId ino);
    util::Status load_extents(CachedInode &inode);
    util::Status store_extents(InodeId ino, CachedInode &inode);
    util::Result<InodeId> alloc_inode(FileType type, std::uint16_t perm,
                                      const Credentials &creds);
    util::Status free_inode(InodeId ino);

    // Block allocation (in-memory bitmap; staged to disk on commit).
    util::Result<extent::Plba> alloc_block(extent::Plba goal);
    util::Result<std::pair<extent::Plba, std::uint64_t>>
    alloc_run(extent::Plba goal, std::uint64_t want);
    util::Status free_block_range(extent::Plba first, std::uint64_t count);
    bool bitmap_get(std::uint64_t block) const;
    void bitmap_set(std::uint64_t block, bool value);
    /** Marks [first, first + count) allocated, a byte at a time. */
    void bitmap_fill(std::uint64_t first, std::uint64_t count);
    /**
     * First block in [from, limit) whose bit equals @p allocated, or
     * @p limit if none.
     */
    std::uint64_t scan_bitmap(std::uint64_t from, std::uint64_t limit,
                              bool allocated) const;
    /** Stages each bitmap block covering [first, first + count) once. */
    void stage_bitmap_blocks(std::uint64_t first, std::uint64_t count);

    // Directory helpers.
    util::Result<InodeId> dir_lookup(InodeId dir, std::string_view name);
    util::Status dir_add(InodeId dir, std::string_view name, InodeId target,
                         FileType type);
    util::Status dir_remove(InodeId dir, std::string_view name);
    util::Result<bool> dir_empty(InodeId dir);

    // Path helpers.
    struct ResolvedParent {
        InodeId parent;
        std::string leaf;
    };
    util::Result<ResolvedParent> resolve_parent(std::string_view path);

    // Data-path helper for write() and directory growth.
    util::Status ensure_allocated(CachedInode &inode, std::uint64_t vblock,
                                  bool zero_fill);

    std::uint64_t inode_block(InodeId ino) const;
    std::uint32_t inode_slot(InodeId ino) const;
    std::uint64_t now_ns() const;

    blk::BlockIo &io_;
    SuperBlock super_{};
    std::vector<std::uint8_t> bitmap_; ///< in-memory block bitmap
    std::uint64_t free_block_count_ = 0;
    std::vector<InodeId> free_inodes_; ///< stack of free inode numbers
    std::map<InodeId, CachedInode> inode_cache_;
    std::unique_ptr<Journal> journal_;
    obs::MetricsRegistry counters_;
    /** Monotonic pseudo-clock for mtime stamps. */
    mutable std::uint64_t mtime_clock_ = 0;
};

} // namespace nesc::fs

#endif // NESC_FS_NESTFS_H
