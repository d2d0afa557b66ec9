/**
 * @file
 * Unit tests for nestfs: lifecycle, namespace, data path (holes,
 * partial blocks, truncate), permissions, extent-chain spill, FIEMAP,
 * allocate_range, crash recovery, and resource exhaustion.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "blocklayer/device_block_io.h"
#include "fs/extent_map.h"
#include "fs/nestfs.h"
#include "sim/simulator.h"
#include "storage/mem_block_device.h"
#include "util/rng.h"

namespace nesc::fs {
namespace {

storage::MemBlockDeviceConfig
fast_device(std::uint64_t capacity = 8 << 20)
{
    storage::MemBlockDeviceConfig cfg;
    cfg.capacity_bytes = capacity;
    cfg.read_bytes_per_sec = 0;
    cfg.write_bytes_per_sec = 0;
    cfg.access_latency = 0;
    return cfg;
}

std::vector<std::byte>
bytes_of(std::string_view text)
{
    std::vector<std::byte> out(text.size());
    std::memcpy(out.data(), text.data(), text.size());
    return out;
}

class NestFsTest : public ::testing::Test {
  protected:
    NestFsTest() : device_(fast_device()), io_(sim_, device_)
    {
        auto fs = NestFs::format(io_);
        EXPECT_TRUE(fs.is_ok()) << fs.status().to_string();
        fs_ = std::move(fs).value();
    }

    sim::Simulator sim_;
    storage::MemBlockDevice device_;
    blk::DeviceBlockIo io_;
    std::unique_ptr<NestFs> fs_;
};

// --- Lifecycle -----------------------------------------------------------

TEST_F(NestFsTest, FormatCreatesRootDirectory)
{
    auto st = fs_->stat(kRootInode);
    ASSERT_TRUE(st.is_ok());
    EXPECT_EQ(st->type, FileType::kDirectory);
    EXPECT_EQ(st->perm, 0755);
    auto entries = fs_->readdir("/");
    ASSERT_TRUE(entries.is_ok());
    EXPECT_TRUE(entries->empty());
}

TEST_F(NestFsTest, MountRejectsUnformattedVolume)
{
    storage::MemBlockDevice raw(fast_device());
    blk::DeviceBlockIo raw_io(sim_, raw);
    EXPECT_EQ(NestFs::mount(raw_io).status().code(),
              util::ErrorCode::kDataLoss);
}

TEST_F(NestFsTest, UnmountThenMountPreservesEverything)
{
    auto ino = fs_->create("/persist.txt", 0640);
    ASSERT_TRUE(ino.is_ok());
    auto data = bytes_of("survives remount");
    ASSERT_TRUE(fs_->write(*ino, 0, data).is_ok());
    ASSERT_TRUE(fs_->unmount().is_ok());
    fs_.reset();

    auto remounted = NestFs::mount(io_);
    ASSERT_TRUE(remounted.is_ok()) << remounted.status().to_string();
    auto again = (*remounted)->resolve("/persist.txt");
    ASSERT_TRUE(again.is_ok());
    std::vector<std::byte> back(data.size());
    auto got = (*remounted)->read(*again, 0, back);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(back, data);
    auto st = (*remounted)->stat(*again);
    ASSERT_TRUE(st.is_ok());
    EXPECT_EQ(st->perm, 0640);
}

TEST_F(NestFsTest, FormatRejectsTinyVolume)
{
    storage::MemBlockDevice tiny(fast_device(16 * 1024));
    blk::DeviceBlockIo tiny_io(sim_, tiny);
    EXPECT_FALSE(NestFs::format(tiny_io).is_ok());
}

// --- Namespace ------------------------------------------------------------

TEST_F(NestFsTest, CreateResolveUnlink)
{
    auto ino = fs_->create("/a.txt", 0644);
    ASSERT_TRUE(ino.is_ok());
    EXPECT_EQ(*fs_->resolve("/a.txt"), *ino);
    ASSERT_TRUE(fs_->unlink("/a.txt").is_ok());
    EXPECT_EQ(fs_->resolve("/a.txt").status().code(),
              util::ErrorCode::kNotFound);
}

TEST_F(NestFsTest, DuplicateCreateRejected)
{
    ASSERT_TRUE(fs_->create("/dup", 0644).is_ok());
    EXPECT_EQ(fs_->create("/dup", 0644).status().code(),
              util::ErrorCode::kAlreadyExists);
}

TEST_F(NestFsTest, NestedDirectories)
{
    ASSERT_TRUE(fs_->mkdir("/a", 0755).is_ok());
    ASSERT_TRUE(fs_->mkdir("/a/b", 0755).is_ok());
    auto ino = fs_->create("/a/b/c.txt", 0644);
    ASSERT_TRUE(ino.is_ok());
    EXPECT_EQ(*fs_->resolve("/a/b/c.txt"), *ino);
    auto entries = fs_->readdir("/a/b");
    ASSERT_TRUE(entries.is_ok());
    ASSERT_EQ(entries->size(), 1u);
    EXPECT_EQ((*entries)[0].name, "c.txt");
    EXPECT_EQ((*entries)[0].type, FileType::kRegular);
}

TEST_F(NestFsTest, MkdirPCreatesChain)
{
    auto ino = fs_->mkdir_p("/x/y/z", 0755);
    ASSERT_TRUE(ino.is_ok());
    EXPECT_TRUE(fs_->resolve("/x/y/z").is_ok());
    // Idempotent.
    EXPECT_TRUE(fs_->mkdir_p("/x/y/z", 0755).is_ok());
}

TEST_F(NestFsTest, RmdirOnlyWhenEmpty)
{
    ASSERT_TRUE(fs_->mkdir("/d", 0755).is_ok());
    ASSERT_TRUE(fs_->create("/d/f", 0644).is_ok());
    EXPECT_EQ(fs_->rmdir("/d").code(),
              util::ErrorCode::kFailedPrecondition);
    ASSERT_TRUE(fs_->unlink("/d/f").is_ok());
    EXPECT_TRUE(fs_->rmdir("/d").is_ok());
    EXPECT_FALSE(fs_->resolve("/d").is_ok());
}

TEST_F(NestFsTest, PathValidation)
{
    EXPECT_FALSE(fs_->create("relative/path", 0644).is_ok());
    EXPECT_FALSE(fs_->create("/a/../b", 0644).is_ok());
    EXPECT_FALSE(fs_->resolve("").is_ok());
    const std::string long_name(100, 'x');
    EXPECT_FALSE(fs_->create("/" + long_name, 0644).is_ok());
}

TEST_F(NestFsTest, UnlinkDirectoryRejected)
{
    ASSERT_TRUE(fs_->mkdir("/dir", 0755).is_ok());
    EXPECT_FALSE(fs_->unlink("/dir").is_ok());
    ASSERT_TRUE(fs_->create("/file", 0644).is_ok());
    EXPECT_FALSE(fs_->rmdir("/file").is_ok());
}

TEST_F(NestFsTest, ManyFilesInOneDirectory)
{
    // Forces the directory file to grow beyond one block (16 entries
    // per block).
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(
            fs_->create("/f" + std::to_string(i), 0644).is_ok());
    }
    auto entries = fs_->readdir("/");
    ASSERT_TRUE(entries.is_ok());
    EXPECT_EQ(entries->size(), 100u);
    // Deleting reuses slots.
    ASSERT_TRUE(fs_->unlink("/f50").is_ok());
    ASSERT_TRUE(fs_->create("/f50b", 0644).is_ok());
    EXPECT_EQ(fs_->readdir("/")->size(), 100u);
}

// --- Data path --------------------------------------------------------------

TEST_F(NestFsTest, WriteReadRoundTrip)
{
    auto ino = fs_->create("/data", 0644);
    ASSERT_TRUE(ino.is_ok());
    auto data = bytes_of("hello nested storage controller");
    ASSERT_TRUE(fs_->write(*ino, 0, data).is_ok());
    std::vector<std::byte> back(data.size());
    auto got = fs_->read(*ino, 0, back);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(*got, data.size());
    EXPECT_EQ(back, data);
    EXPECT_EQ(fs_->stat(*ino)->size_bytes, data.size());
}

TEST_F(NestFsTest, ShortReadAtEof)
{
    auto ino = fs_->create("/short", 0644);
    ASSERT_TRUE(fs_->write(*ino, 0, bytes_of("12345")).is_ok());
    std::vector<std::byte> buf(100);
    EXPECT_EQ(*fs_->read(*ino, 0, buf), 5u);
    EXPECT_EQ(*fs_->read(*ino, 5, buf), 0u);
    EXPECT_EQ(*fs_->read(*ino, 1000, buf), 0u);
}

TEST_F(NestFsTest, UnalignedWritesAcrossBlockBoundaries)
{
    auto ino = fs_->create("/unaligned", 0644);
    // Write 3000 bytes at offset 500: straddles blocks 0..3.
    std::vector<std::byte> data(3000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::byte>(i * 7);
    ASSERT_TRUE(fs_->write(*ino, 500, data).is_ok());
    std::vector<std::byte> back(3000);
    ASSERT_EQ(*fs_->read(*ino, 500, back), 3000u);
    EXPECT_EQ(back, data);
    // Bytes before the write read as zeros (hole head of block 0).
    std::vector<std::byte> head(500);
    ASSERT_EQ(*fs_->read(*ino, 0, head), 500u);
    for (std::byte b : head)
        EXPECT_EQ(b, std::byte{0});
}

TEST_F(NestFsTest, OverwriteDoesNotGrow)
{
    auto ino = fs_->create("/ow", 0644);
    ASSERT_TRUE(fs_->write(*ino, 0, bytes_of("aaaaaaaa")).is_ok());
    const auto blocks_before = fs_->free_blocks();
    ASSERT_TRUE(fs_->write(*ino, 0, bytes_of("bbbbbbbb")).is_ok());
    EXPECT_EQ(fs_->free_blocks(), blocks_before);
    std::vector<std::byte> back(8);
    ASSERT_EQ(*fs_->read(*ino, 0, back), 8u);
    EXPECT_EQ(back, bytes_of("bbbbbbbb"));
}

TEST_F(NestFsTest, SparseWriteLeavesHole)
{
    auto ino = fs_->create("/sparse", 0644);
    ASSERT_TRUE(fs_->write(*ino, 100 * kFsBlockSize,
                           bytes_of("tail")).is_ok());
    EXPECT_EQ(fs_->stat(*ino)->size_bytes, 100u * kFsBlockSize + 4);
    // Only ~1 data block allocated.
    auto extents = fs_->fiemap(*ino);
    ASSERT_TRUE(extents.is_ok());
    EXPECT_EQ(extent::total_mapped_blocks(*extents), 1u);
    // The hole reads as zeros.
    std::vector<std::byte> buf(kFsBlockSize, std::byte{0xff});
    ASSERT_EQ(*fs_->read(*ino, 50 * kFsBlockSize, buf), kFsBlockSize);
    for (std::byte b : buf)
        EXPECT_EQ(b, std::byte{0});
}

TEST_F(NestFsTest, TruncateShrinkFreesBlocks)
{
    auto ino = fs_->create("/trunc", 0644);
    std::vector<std::byte> data(10 * kFsBlockSize, std::byte{0x42});
    ASSERT_TRUE(fs_->write(*ino, 0, data).is_ok());
    const auto free_small = fs_->free_blocks();
    ASSERT_TRUE(fs_->truncate(*ino, 2 * kFsBlockSize).is_ok());
    EXPECT_EQ(fs_->free_blocks(), free_small + 8);
    EXPECT_EQ(fs_->stat(*ino)->size_bytes, 2u * kFsBlockSize);
}

TEST_F(NestFsTest, TruncatePartialBlockZeroesTail)
{
    auto ino = fs_->create("/tailzero", 0644);
    std::vector<std::byte> data(kFsBlockSize, std::byte{0x42});
    ASSERT_TRUE(fs_->write(*ino, 0, data).is_ok());
    ASSERT_TRUE(fs_->truncate(*ino, 100).is_ok());
    ASSERT_TRUE(fs_->truncate(*ino, kFsBlockSize).is_ok()); // grow back
    std::vector<std::byte> back(kFsBlockSize);
    ASSERT_EQ(*fs_->read(*ino, 0, back), kFsBlockSize);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_EQ(back[i], std::byte{0x42});
    for (std::size_t i = 100; i < kFsBlockSize; ++i)
        EXPECT_EQ(back[i], std::byte{0}) << i;
}

TEST_F(NestFsTest, TruncateGrowIsSparse)
{
    auto ino = fs_->create("/grow", 0644);
    const auto free_before = fs_->free_blocks();
    ASSERT_TRUE(fs_->truncate(*ino, 1000 * kFsBlockSize).is_ok());
    EXPECT_EQ(fs_->free_blocks(), free_before); // no allocation
    EXPECT_EQ(fs_->stat(*ino)->size_bytes, 1000u * kFsBlockSize);
}

TEST_F(NestFsTest, UnlinkFreesAllBlocks)
{
    // Force the root directory's first block to exist up front; it
    // stays allocated after the unlink (directories do not shrink).
    ASSERT_TRUE(fs_->create("/placeholder", 0644).is_ok());
    const auto free_before = fs_->free_blocks();
    auto ino = fs_->create("/big", 0644);
    std::vector<std::byte> data(64 * kFsBlockSize, std::byte{1});
    ASSERT_TRUE(fs_->write(*ino, 0, data).is_ok());
    EXPECT_LT(fs_->free_blocks(), free_before);
    ASSERT_TRUE(fs_->unlink("/big").is_ok());
    EXPECT_EQ(fs_->free_blocks(), free_before);
}

TEST_F(NestFsTest, WriteToDirectoryRejected)
{
    ASSERT_TRUE(fs_->mkdir("/dir", 0755).is_ok());
    auto ino = fs_->resolve("/dir");
    EXPECT_FALSE(fs_->write(*ino, 0, bytes_of("x")).is_ok());
}

// --- rename -----------------------------------------------------------------

TEST_F(NestFsTest, RenameWithinDirectory)
{
    auto ino = fs_->create("/old", 0644);
    ASSERT_TRUE(ino.is_ok());
    ASSERT_TRUE(fs_->write(*ino, 0, bytes_of("payload")).is_ok());
    ASSERT_TRUE(fs_->rename("/old", "/new").is_ok());
    EXPECT_FALSE(fs_->resolve("/old").is_ok());
    auto moved = fs_->resolve("/new");
    ASSERT_TRUE(moved.is_ok());
    EXPECT_EQ(*moved, *ino); // same inode, same data
    std::vector<std::byte> back(7);
    ASSERT_EQ(*fs_->read(*moved, 0, back), 7u);
    EXPECT_EQ(back, bytes_of("payload"));
}

TEST_F(NestFsTest, RenameAcrossDirectories)
{
    ASSERT_TRUE(fs_->mkdir("/a", 0755).is_ok());
    ASSERT_TRUE(fs_->mkdir("/b", 0755).is_ok());
    ASSERT_TRUE(fs_->create("/a/f", 0644).is_ok());
    ASSERT_TRUE(fs_->rename("/a/f", "/b/g").is_ok());
    EXPECT_FALSE(fs_->resolve("/a/f").is_ok());
    EXPECT_TRUE(fs_->resolve("/b/g").is_ok());
}

TEST_F(NestFsTest, RenameReplacesExistingFile)
{
    auto a = fs_->create("/ra", 0644);
    auto b = fs_->create("/rb", 0644);
    ASSERT_TRUE(a.is_ok() && b.is_ok());
    ASSERT_TRUE(fs_->write(*a, 0, bytes_of("AAA")).is_ok());
    ASSERT_TRUE(fs_->write(*b, 0, bytes_of("BBB")).is_ok());
    const auto free_before = fs_->free_blocks();
    ASSERT_TRUE(fs_->rename("/ra", "/rb").is_ok());
    auto now = fs_->resolve("/rb");
    ASSERT_TRUE(now.is_ok());
    EXPECT_EQ(*now, *a);
    std::vector<std::byte> back(3);
    ASSERT_EQ(*fs_->read(*now, 0, back), 3u);
    EXPECT_EQ(back, bytes_of("AAA"));
    // The replaced file's block was freed.
    EXPECT_EQ(fs_->free_blocks(), free_before + 1);
}

TEST_F(NestFsTest, RenameDirectoryAndRejectIntoItself)
{
    ASSERT_TRUE(fs_->mkdir("/dir", 0755).is_ok());
    ASSERT_TRUE(fs_->create("/dir/f", 0644).is_ok());
    ASSERT_TRUE(fs_->rename("/dir", "/moved").is_ok());
    EXPECT_TRUE(fs_->resolve("/moved/f").is_ok());
    // Into its own subtree: rejected.
    ASSERT_TRUE(fs_->mkdir("/moved/sub", 0755).is_ok());
    EXPECT_FALSE(fs_->rename("/moved", "/moved/sub/x").is_ok());
    // Directory cannot replace a file, nor a file a directory.
    ASSERT_TRUE(fs_->create("/plain", 0644).is_ok());
    EXPECT_FALSE(fs_->rename("/moved", "/plain").is_ok());
    EXPECT_FALSE(fs_->rename("/plain", "/moved").is_ok());
}

TEST_F(NestFsTest, RenameToItselfIsNoop)
{
    auto ino = fs_->create("/same", 0644);
    ASSERT_TRUE(ino.is_ok());
    ASSERT_TRUE(fs_->rename("/same", "/same").is_ok());
    EXPECT_EQ(*fs_->resolve("/same"), *ino);
}

// --- Permissions ---------------------------------------------------------

TEST_F(NestFsTest, OwnerPermissionBits)
{
    const Credentials owner{10, 20};
    const Credentials other{30, 40};
    const Credentials same_group{31, 20};
    ASSERT_TRUE(fs_->mkdir("/home", 0777).is_ok());
    auto ino = fs_->create("/home/secret", 0640, owner);
    ASSERT_TRUE(ino.is_ok());

    EXPECT_TRUE(fs_->check_access(*ino, Access::kRead, owner).is_ok());
    EXPECT_TRUE(fs_->check_access(*ino, Access::kWrite, owner).is_ok());
    EXPECT_TRUE(
        fs_->check_access(*ino, Access::kRead, same_group).is_ok());
    EXPECT_EQ(
        fs_->check_access(*ino, Access::kWrite, same_group).code(),
        util::ErrorCode::kPermissionDenied);
    EXPECT_EQ(fs_->check_access(*ino, Access::kRead, other).code(),
              util::ErrorCode::kPermissionDenied);
}

TEST_F(NestFsTest, SuperuserBypassesChecks)
{
    const Credentials owner{10, 20};
    ASSERT_TRUE(fs_->mkdir("/home", 0777).is_ok());
    auto ino = fs_->create("/home/locked", 0000, owner);
    ASSERT_TRUE(ino.is_ok());
    EXPECT_TRUE(fs_->check_access(*ino, Access::kRead,
                                  Credentials{0, 0}).is_ok());
    std::vector<std::byte> buf(4);
    EXPECT_TRUE(fs_->read(*ino, 0, buf, Credentials{0, 0}).is_ok());
}

TEST_F(NestFsTest, ReadWriteEnforcePermissions)
{
    const Credentials owner{10, 20};
    const Credentials other{11, 21};
    ASSERT_TRUE(fs_->mkdir("/home", 0777).is_ok());
    auto ino = fs_->create("/home/f", 0600, owner);
    ASSERT_TRUE(ino.is_ok());
    std::vector<std::byte> buf(4);
    EXPECT_FALSE(fs_->read(*ino, 0, buf, other).is_ok());
    EXPECT_FALSE(fs_->write(*ino, 0, buf, other).is_ok());
    EXPECT_TRUE(fs_->write(*ino, 0, buf, owner).is_ok());
}

TEST_F(NestFsTest, CreateRequiresParentWritePermission)
{
    const Credentials owner{10, 20};
    const Credentials other{11, 21};
    // Root creates the directory and hands it to `owner`.
    auto dir = fs_->mkdir("/locked", 0755);
    ASSERT_TRUE(dir.is_ok());
    ASSERT_TRUE(fs_->chown(*dir, owner.uid, owner.gid).is_ok());
    EXPECT_EQ(fs_->create("/locked/f", 0644, other).status().code(),
              util::ErrorCode::kPermissionDenied);
    EXPECT_TRUE(fs_->create("/locked/f", 0644, owner).is_ok());
}

TEST_F(NestFsTest, ChmodChown)
{
    const Credentials owner{10, 20};
    const Credentials other{11, 21};
    ASSERT_TRUE(fs_->mkdir("/home", 0777).is_ok());
    auto ino = fs_->create("/home/f", 0600, owner);
    ASSERT_TRUE(ino.is_ok());
    EXPECT_FALSE(fs_->chmod(*ino, 0644, other).is_ok());
    ASSERT_TRUE(fs_->chmod(*ino, 0644, owner).is_ok());
    EXPECT_EQ(fs_->stat(*ino)->perm, 0644);
    EXPECT_FALSE(fs_->chown(*ino, 11, 21, other).is_ok());
    ASSERT_TRUE(fs_->chown(*ino, 11, 21, Credentials{0, 0}).is_ok());
    EXPECT_EQ(fs_->stat(*ino)->uid, 11);
}

// --- FIEMAP & allocate_range -----------------------------------------------

TEST_F(NestFsTest, FiemapMatchesWrites)
{
    auto ino = fs_->create("/map", 0644);
    std::vector<std::byte> data(8 * kFsBlockSize, std::byte{1});
    ASSERT_TRUE(fs_->write(*ino, 0, data).is_ok());
    auto extents = fs_->fiemap(*ino);
    ASSERT_TRUE(extents.is_ok());
    EXPECT_TRUE(extent::is_valid_extent_list(*extents));
    EXPECT_EQ(extent::total_mapped_blocks(*extents), 8u);
    // Sequential writes should coalesce well: far fewer extents than
    // blocks.
    EXPECT_LE(extents->size(), 2u);
}

TEST_F(NestFsTest, AllocateRangeMapsWithoutData)
{
    auto ino = fs_->create("/alloc", 0644);
    ASSERT_TRUE(fs_->allocate_range(*ino, 10, 20).is_ok());
    auto extents = fs_->fiemap(*ino);
    ASSERT_TRUE(extents.is_ok());
    EXPECT_EQ(extent::total_mapped_blocks(*extents), 20u);
    EXPECT_TRUE(map_lookup(*extents, 10).has_value());
    EXPECT_TRUE(map_lookup(*extents, 29).has_value());
    EXPECT_FALSE(map_lookup(*extents, 9).has_value());
    EXPECT_EQ(fs_->stat(*ino)->size_bytes, 30u * kFsBlockSize);
}

TEST_F(NestFsTest, AllocateRangeIdempotent)
{
    auto ino = fs_->create("/alloc2", 0644);
    ASSERT_TRUE(fs_->allocate_range(*ino, 0, 16).is_ok());
    const auto free_after = fs_->free_blocks();
    ASSERT_TRUE(fs_->allocate_range(*ino, 0, 16).is_ok());
    EXPECT_EQ(fs_->free_blocks(), free_after);
}

TEST_F(NestFsTest, ExtentChainSpillAndReload)
{
    // Force far more extents than fit inline (8): fragment by
    // alternating allocation between two files.
    auto a = fs_->create("/chainA", 0644);
    auto b = fs_->create("/chainB", 0644);
    ASSERT_TRUE(a.is_ok() && b.is_ok());
    const std::uint64_t n = 200;
    for (std::uint64_t vb = 0; vb < n; ++vb) {
        ASSERT_TRUE(fs_->allocate_range(*a, vb, 1).is_ok());
        ASSERT_TRUE(fs_->allocate_range(*b, vb, 1).is_ok());
    }
    auto extents = fs_->fiemap(*a);
    ASSERT_TRUE(extents.is_ok());
    EXPECT_EQ(extents->size(), n); // fully fragmented
    EXPECT_EQ(fs_->stat(*a)->extent_count, n);

    // Persist through a remount (the chain lives on disk).
    ASSERT_TRUE(fs_->unmount().is_ok());
    fs_.reset();
    auto remounted = NestFs::mount(io_);
    ASSERT_TRUE(remounted.is_ok());
    auto ino2 = (*remounted)->resolve("/chainA");
    ASSERT_TRUE(ino2.is_ok());
    auto extents2 = (*remounted)->fiemap(*ino2);
    ASSERT_TRUE(extents2.is_ok());
    EXPECT_EQ(*extents2, *extents);
}

// --- Crash recovery -----------------------------------------------------------

TEST_F(NestFsTest, JournalReplayAfterCrash)
{
    // Do metadata-heavy work and "crash" (drop the NestFs without
    // unmount, leaving clean_shutdown unset and possibly un-replayed
    // journal state). Mount must produce a consistent tree.
    auto ino = fs_->create("/crash1", 0644);
    ASSERT_TRUE(ino.is_ok());
    ASSERT_TRUE(fs_->write(*ino, 0, bytes_of("committed data")).is_ok());
    ASSERT_TRUE(fs_->create("/crash2", 0644).is_ok());
    // No unmount: crash.
    fs_.reset();

    auto remounted = NestFs::mount(io_);
    ASSERT_TRUE(remounted.is_ok()) << remounted.status().to_string();
    EXPECT_TRUE((*remounted)->resolve("/crash1").is_ok());
    EXPECT_TRUE((*remounted)->resolve("/crash2").is_ok());
    auto again = (*remounted)->resolve("/crash1");
    std::vector<std::byte> back(14);
    ASSERT_EQ(*(*remounted)->read(*again, 0, back), 14u);
    EXPECT_EQ(back, bytes_of("committed data"));
}

TEST_F(NestFsTest, RecoveredFreeCountsAreConsistent)
{
    ASSERT_TRUE(fs_->create("/placeholder", 0644).is_ok());
    auto free0 = fs_->free_blocks();
    auto ino = fs_->create("/f", 0644);
    std::vector<std::byte> data(32 * kFsBlockSize, std::byte{1});
    ASSERT_TRUE(fs_->write(*ino, 0, data).is_ok());
    auto free1 = fs_->free_blocks();
    fs_.reset(); // crash
    auto remounted = NestFs::mount(io_);
    ASSERT_TRUE(remounted.is_ok());
    EXPECT_EQ((*remounted)->free_blocks(), free1);
    ASSERT_TRUE((*remounted)->unlink("/f").is_ok());
    EXPECT_EQ((*remounted)->free_blocks(), free0);
}

// --- Resource exhaustion ----------------------------------------------------

TEST_F(NestFsTest, OutOfInodes)
{
    storage::MemBlockDevice dev(fast_device());
    blk::DeviceBlockIo io(sim_, dev);
    NestFsConfig config;
    config.inode_count = 4; // root + 3
    auto fs = NestFs::format(io, config);
    ASSERT_TRUE(fs.is_ok());
    ASSERT_TRUE((*fs)->create("/a", 0644).is_ok());
    ASSERT_TRUE((*fs)->create("/b", 0644).is_ok());
    ASSERT_TRUE((*fs)->create("/c", 0644).is_ok());
    EXPECT_EQ((*fs)->create("/d", 0644).status().code(),
              util::ErrorCode::kResourceExhausted);
    // Deleting frees the inode for reuse.
    ASSERT_TRUE((*fs)->unlink("/b").is_ok());
    EXPECT_TRUE((*fs)->create("/d", 0644).is_ok());
}

TEST_F(NestFsTest, OutOfBlocks)
{
    storage::MemBlockDevice dev(fast_device(1 << 20)); // 1 MiB volume
    blk::DeviceBlockIo io(sim_, dev);
    auto fs = NestFs::format(io);
    ASSERT_TRUE(fs.is_ok());
    auto ino = (*fs)->create("/huge", 0644);
    ASSERT_TRUE(ino.is_ok());
    std::vector<std::byte> chunk(64 * kFsBlockSize, std::byte{1});
    util::Status status = util::Status::ok();
    std::uint64_t offset = 0;
    while (status.is_ok()) {
        status = (*fs)->write(*ino, offset, chunk);
        offset += chunk.size();
        ASSERT_LT(offset, 4ULL << 20) << "should exhaust before 4 MiB";
    }
    EXPECT_EQ(status.code(), util::ErrorCode::kResourceExhausted);
}

// --- Randomized property test against an in-memory reference -----------------

TEST_F(NestFsTest, RandomOpsMatchReferenceModel)
{
    util::Rng rng(1234);
    auto ino = fs_->create("/model", 0644);
    ASSERT_TRUE(ino.is_ok());
    std::vector<std::byte> reference; // authoritative file image

    for (int op = 0; op < 150; ++op) {
        const int kind = static_cast<int>(rng.next_below(10));
        if (kind < 5) { // write
            const std::uint64_t offset = rng.next_below(48 * 1024);
            std::vector<std::byte> data(1 + rng.next_below(6000));
            for (auto &b : data)
                b = static_cast<std::byte>(rng.next());
            ASSERT_TRUE(fs_->write(*ino, offset, data).is_ok());
            if (reference.size() < offset + data.size())
                reference.resize(offset + data.size());
            std::copy(data.begin(), data.end(),
                      reference.begin() + static_cast<long>(offset));
        } else if (kind < 8) { // read & compare
            const std::uint64_t offset = rng.next_below(64 * 1024);
            std::vector<std::byte> buf(1 + rng.next_below(8000));
            auto got = fs_->read(*ino, offset, buf);
            ASSERT_TRUE(got.is_ok());
            const std::uint64_t want =
                offset >= reference.size()
                    ? 0
                    : std::min<std::uint64_t>(buf.size(),
                                              reference.size() - offset);
            ASSERT_EQ(*got, want);
            for (std::uint64_t i = 0; i < want; ++i)
                ASSERT_EQ(buf[i], reference[offset + i])
                    << "op=" << op << " i=" << i;
        } else { // truncate
            const std::uint64_t new_size = rng.next_below(64 * 1024);
            ASSERT_TRUE(fs_->truncate(*ino, new_size).is_ok());
            const std::size_t old = reference.size();
            reference.resize(new_size);
            for (std::size_t i = old; i < reference.size(); ++i)
                reference[i] = std::byte{0};
        }
    }
}

// --- allocate_range layout ---------------------------------------------------
//
// Each scenario provisions files on a fresh volume with allocate_range
// only. The golden pins, per scenario and journal mode, every file's
// extent list, the allocation bitmap as the filesystem sees it, the
// free-block count and the whole volume after sync(), so a faster
// allocator must reproduce the same layout byte for byte.

/** FNV-1a over 64-bit words, least-significant byte first. */
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

    void
    add_bytes(std::span<const std::byte> bytes)
    {
        for (std::size_t i = 0; i < bytes.size(); i += 8) {
            std::uint64_t word = 0;
            for (std::size_t j = 0; j < 8 && i + j < bytes.size(); ++j)
                word |= std::to_integer<std::uint64_t>(bytes[i + j])
                        << (8 * j);
            add(word);
        }
    }
};

/** A 32 MiB volume (32 Ki blocks, four bitmap blocks) and its files. */
struct AllocVolume {
    explicit AllocVolume(JournalMode mode)
        : device(fast_device(32 << 20)), io(sim, device)
    {
        NestFsConfig config;
        config.journal_mode = mode;
        auto formatted = NestFs::format(io, config);
        EXPECT_TRUE(formatted.is_ok()) << formatted.status().to_string();
        fs = std::move(formatted).value();
    }

    InodeId
    create(const std::string &path)
    {
        auto ino = fs->create(path, 0644);
        EXPECT_TRUE(ino.is_ok()) << ino.status().to_string();
        paths.push_back(path);
        return ino.is_ok() ? *ino : kInvalidInode;
    }

    void
    allocate(InodeId ino, std::uint64_t first, std::uint64_t n)
    {
        const util::Status s = fs->allocate_range(ino, first, n);
        EXPECT_TRUE(s.is_ok()) << s.to_string();
    }

    void
    truncate_blocks(InodeId ino, std::uint64_t nblocks)
    {
        EXPECT_TRUE(fs->truncate(ino, nblocks * kFsBlockSize).is_ok());
    }

    sim::Simulator sim;
    storage::MemBlockDevice device;
    blk::DeviceBlockIo io;
    std::unique_ptr<NestFs> fs;
    std::vector<std::string> paths; ///< files in creation order
};

// A fresh volume: one 16 Ki-block range.
void
scenario_fresh(AllocVolume &v)
{
    v.allocate(v.create("/fresh"), 0, 16 * 1024);
}

// Alternating 1-block allocations, truncates that punch holes between
// the survivors, then large ranges laid over the fragments.
void
scenario_fragmented(AllocVolume &v)
{
    const InodeId a = v.create("/a");
    const InodeId b = v.create("/b");
    for (std::uint64_t vb = 0; vb < 300; ++vb) {
        v.allocate(a, vb, 1);
        v.allocate(b, vb, 1);
    }
    v.truncate_blocks(b, 100); // 1-block holes between a's blocks
    v.truncate_blocks(a, 250);
    const InodeId c = v.create("/c");
    v.allocate(c, 0, 5000);     // goal 0: through every hole
    v.allocate(a, 1000, 3000);  // hole before the range: goal 0
    v.allocate(b, 100, 500);    // continues after b's last block
    v.allocate(a, 250, 40);     // continues after a's block 249
}

// A range whose both ends are already mapped, with another file's
// blocks after the first mapped piece.
void
scenario_overlap(AllocVolume &v)
{
    const InodeId f = v.create("/f");
    const InodeId g = v.create("/g");
    v.allocate(f, 0, 10);
    v.allocate(g, 0, 7);
    v.allocate(f, 50, 10);
    v.allocate(g, 7, 3);
    v.allocate(f, 5, 50); // maps [10, 50) only
    v.allocate(f, 100, 20);
    v.allocate(f, 58, 70); // maps [60, 100) and [120, 128)
}

// The goal sits 100 blocks before the volume end, so the range takes
// the tail and continues from data_start. Then a goal whose block and
// everything after it are allocated: the scan wraps to data_start.
void
scenario_wrap(AllocVolume &v)
{
    const InodeId low = v.create("/low");
    const InodeId high = v.create("/high");
    auto high_end = [&] {
        return v.fs->stat(high)->size_bytes / kFsBlockSize;
    };
    v.allocate(low, 0, 2000);
    v.allocate(high, 0, v.fs->free_blocks() - 100);
    v.truncate_blocks(low, 500); // frees low's [500, 2000)
    v.allocate(high, high_end(), 1200);
    v.truncate_blocks(low, 100); // frees low's [100, 500)
    v.allocate(high, high_end(), 600);
}

struct AllocScenario {
    const char *name;
    void (*run)(AllocVolume &);
};

constexpr AllocScenario kAllocScenarios[] = {
    {"fresh", scenario_fresh},
    {"fragmented", scenario_fragmented},
    {"overlap", scenario_overlap},
    {"wrap", scenario_wrap},
};

constexpr JournalMode kAllocModes[] = {JournalMode::kMetadata,
                                       JournalMode::kNone};

const char *
mode_name(JournalMode mode)
{
    return mode == JournalMode::kNone ? "none" : "metadata";
}

/** One golden line: the scenario's layout, digested. */
std::string
layout_fingerprint(const AllocScenario &scenario, JournalMode mode)
{
    AllocVolume v(mode);
    scenario.run(v);
    NestFs &fs = *v.fs;

    Digest maps;
    std::uint64_t extents = 0;
    for (const std::string &path : v.paths) {
        auto ino = fs.resolve(path);
        EXPECT_TRUE(ino.is_ok()) << path;
        auto list = fs.fiemap(*ino);
        EXPECT_TRUE(list.is_ok()) << path;
        maps.add(list->size());
        for (const extent::Extent &e : *list) {
            maps.add(e.first_vblock);
            maps.add(e.nblocks);
            maps.add(e.first_pblock);
        }
        extents += list->size();
    }

    // The bitmap as the filesystem sees it: staged blocks win over
    // the media, and every bitmap change is staged (or, without a
    // journal, written through).
    const SuperBlock &sb = fs.superblock();
    Digest bitmap;
    std::vector<std::byte> block(kFsBlockSize);
    for (std::uint64_t i = 0; i < sb.bitmap_blocks; ++i) {
        EXPECT_TRUE(
            fs.journal().read_through(sb.bitmap_start + i, block).is_ok());
        bitmap.add_bytes(block);
    }
    const std::uint64_t free_blocks = fs.free_blocks();
    const std::uint64_t allocated = fs.counters().get("blocks_allocated");

    EXPECT_TRUE(fs.sync().is_ok());
    Digest media;
    constexpr std::uint64_t kChunk = 1024;
    std::vector<std::byte> chunk(kChunk * kFsBlockSize);
    for (std::uint64_t b = 0; b < sb.total_blocks; b += kChunk) {
        const std::uint64_t n = std::min(kChunk, sb.total_blocks - b);
        std::span<std::byte> out(chunk.data(), n * kFsBlockSize);
        EXPECT_TRUE(v.io.read_blocks(b, n, out).is_ok());
        media.add_bytes(out);
    }

    char line[256];
    std::snprintf(
        line, sizeof line,
        "%s %s extents %llu maps %016llx bitmap %016llx free %llu "
        "allocated %llu media %016llx\n",
        mode_name(mode), scenario.name,
        static_cast<unsigned long long>(extents),
        static_cast<unsigned long long>(maps.h),
        static_cast<unsigned long long>(bitmap.h),
        static_cast<unsigned long long>(free_blocks),
        static_cast<unsigned long long>(allocated),
        static_cast<unsigned long long>(media.h));
    return line;
}

TEST(NestFsAllocGolden, LayoutMatchesGolden)
{
    std::string actual;
    for (JournalMode mode : kAllocModes)
        for (const AllocScenario &scenario : kAllocScenarios)
            actual += layout_fingerprint(scenario, mode);
    std::ifstream golden_file(NESC_NESTFS_ALLOC_GOLDEN);
    std::stringstream golden;
    golden << golden_file.rdbuf();
    if (golden.str() == actual)
        return;
    std::ofstream("nestfs_alloc.actual.txt") << actual;
    ADD_FAILURE() << "allocation layout drifted from "
                  << NESC_NESTFS_ALLOC_GOLDEN << "\n--- golden\n"
                  << golden.str()
                  << "--- actual (also in nestfs_alloc.actual.txt)\n"
                  << actual;
}

TEST(NestFsAllocScenarios, FsckCleanAfterEveryScenario)
{
    for (JournalMode mode : kAllocModes) {
        for (const AllocScenario &scenario : kAllocScenarios) {
            AllocVolume v(mode);
            scenario.run(v);
            auto report = v.fs->fsck();
            ASSERT_TRUE(report.is_ok());
            EXPECT_TRUE(report->clean)
                << mode_name(mode) << " " << scenario.name << ": "
                << (report->errors.empty() ? "" : report->errors.front());
            EXPECT_EQ(report->leaked_blocks, 0u) << scenario.name;
        }
    }
}

TEST(NestFsAllocScenarios, RemountRoundTripsExtents)
{
    for (JournalMode mode : kAllocModes) {
        for (const AllocScenario &scenario : kAllocScenarios) {
            AllocVolume v(mode);
            scenario.run(v);
            std::vector<extent::ExtentList> before;
            for (const std::string &path : v.paths)
                before.push_back(*v.fs->fiemap(*v.fs->resolve(path)));
            const std::uint64_t free_before = v.fs->free_blocks();
            ASSERT_TRUE(v.fs->unmount().is_ok());
            v.fs.reset();

            auto remounted = NestFs::mount(v.io);
            ASSERT_TRUE(remounted.is_ok()) << remounted.status().to_string();
            NestFs &fs = **remounted;
            EXPECT_EQ(fs.free_blocks(), free_before) << scenario.name;
            for (std::size_t i = 0; i < v.paths.size(); ++i) {
                auto ino = fs.resolve(v.paths[i]);
                ASSERT_TRUE(ino.is_ok()) << v.paths[i];
                EXPECT_EQ(*fs.fiemap(*ino), before[i])
                    << mode_name(mode) << " " << scenario.name << " "
                    << v.paths[i];
            }
            auto report = fs.fsck();
            ASSERT_TRUE(report.is_ok());
            EXPECT_TRUE(report->clean) << scenario.name;
        }
    }
}

TEST_F(NestFsTest, AllocateRangeOutOfSpaceMidRange)
{
    storage::MemBlockDevice dev(fast_device(1 << 20)); // 1 MiB volume
    blk::DeviceBlockIo io(sim_, dev);
    auto fs = NestFs::format(io);
    ASSERT_TRUE(fs.is_ok());
    auto ino = (*fs)->create("/huge", 0644);
    ASSERT_TRUE(ino.is_ok());
    // The range is mapped at both ends already, so the allocator runs
    // dry in the middle of a gap.
    ASSERT_TRUE((*fs)->allocate_range(*ino, 0, 4).is_ok());
    ASSERT_TRUE((*fs)->allocate_range(*ino, 2000, 4).is_ok());
    const std::uint64_t free_before = (*fs)->free_blocks();
    ASSERT_LT(free_before, 1996u);
    const extent::ExtentList extents_before = *(*fs)->fiemap(*ino);
    const Stat stat_before = *(*fs)->stat(*ino);
    EXPECT_EQ((*fs)->allocate_range(*ino, 0, 2004).code(),
              util::ErrorCode::kResourceExhausted);

    // The failed call gives back every run it got, in memory and on
    // disk: no leaked blocks, no half-mapped range, size and mtime kept.
    const auto check = [&](NestFs &volume) {
        EXPECT_EQ(volume.free_blocks(), free_before);
        EXPECT_EQ(*volume.fiemap(*ino), extents_before);
        EXPECT_EQ(volume.stat(*ino)->size_bytes, stat_before.size_bytes);
        EXPECT_EQ(volume.stat(*ino)->mtime_ns, stat_before.mtime_ns);
        auto report = volume.fsck();
        ASSERT_TRUE(report.is_ok());
        EXPECT_TRUE(report->clean)
            << (report->errors.empty() ? "" : report->errors.front());
        EXPECT_EQ(report->leaked_blocks, 0u);
    };
    check(**fs);
    ASSERT_TRUE((*fs)->unmount().is_ok());
    fs->reset();
    auto remounted = NestFs::mount(io);
    ASSERT_TRUE(remounted.is_ok()) << remounted.status().to_string();
    check(**remounted);
}

} // namespace
} // namespace nesc::fs
