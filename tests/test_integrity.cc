/**
 * @file
 * End-to-end data integrity tests (PR 9): the CRC32C kernel, the
 * per-pLBA sidecar (storage::IntegrityMap), sticky media corruption in
 * the fault injector, the controller's verifying read path and
 * recovery ladder, the background scrubber, checksummed extent-tree
 * images (format v2), and nestfs metadata checksums with fsck
 * verification of seeded corruption.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "blocklayer/device_block_io.h"
#include "controller_rig.h"
#include "drivers/function_driver.h"
#include "drivers/pf_driver.h"
#include "extent/tree_image.h"
#include "extent/walker.h"
#include "fs/nestfs.h"
#include "nesc/controller.h"
#include "repl/replica_set.h"
#include "sim/simulator.h"
#include "storage/faulty_block_device.h"
#include "storage/integrity_map.h"
#include "storage/mem_block_device.h"
#include "util/crc32c.h"
#include "virt/testbed.h"
#include "workloads/dd.h"

namespace nesc {
namespace {

// --- CRC32C kernel -------------------------------------------------------

TEST(Crc32c, MatchesCastagnoliCheckValue)
{
    // The standard CRC-32C check value for "123456789".
    const char digits[] = "123456789";
    EXPECT_EQ(util::crc32c(digits, 9), 0xe3069283u);
}

TEST(Crc32c, EmptyInputIsZero)
{
    EXPECT_EQ(util::crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, SeedChainingEqualsOneShot)
{
    std::vector<std::byte> data(1024);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::byte>(i * 31 + 7);
    const std::uint32_t whole = util::crc32c(data);
    for (std::size_t split : {std::size_t{1}, std::size_t{63},
                              std::size_t{512}, std::size_t{1023}}) {
        const std::uint32_t first = util::crc32c(data.data(), split);
        const std::uint32_t chained =
            util::crc32c(data.data() + split, data.size() - split, first);
        EXPECT_EQ(chained, whole) << "split at " << split;
    }
}

TEST(Crc32c, SensitiveToSingleBitFlips)
{
    std::vector<std::byte> data(1024, std::byte{0x5a});
    const std::uint32_t clean = util::crc32c(data);
    for (std::size_t bit : {std::size_t{0}, std::size_t{17},
                            std::size_t{4000}, std::size_t{8191}}) {
        std::vector<std::byte> damaged = data;
        damaged[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
        EXPECT_NE(util::crc32c(damaged), clean) << "bit " << bit;
    }
}

/** Bit-at-a-time CRC32C, the reference for the table-driven kernel. */
std::uint32_t
bitwise_crc32c(const std::byte *data, std::size_t size,
               std::uint32_t seed = 0)
{
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= static_cast<std::uint32_t>(data[i]);
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
    return ~crc;
}

TEST(Crc32c, MatchesBitwiseReferenceAtEveryLengthAndOffset)
{
    // Lengths 0-64 cover every tail after zero to eight 8-byte steps;
    // offsets 0-7 start the steps at every alignment.
    std::vector<std::byte> data(64 + 8);
    wl::fill_pattern(23, 0, data);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 64; ++len) {
            const std::byte *p = data.data() + offset;
            EXPECT_EQ(util::crc32c(p, len), bitwise_crc32c(p, len))
                << "length " << len << " at offset " << offset;
            EXPECT_EQ(util::crc32c(p, len, 0x12345678u),
                      bitwise_crc32c(p, len, 0x12345678u))
                << "seeded, length " << len << " at offset " << offset;
        }
    }
}

// --- IntegrityMap --------------------------------------------------------

storage::MemBlockDeviceConfig
small_media(std::uint64_t capacity_bytes = 4 << 20)
{
    storage::MemBlockDeviceConfig cfg;
    cfg.capacity_bytes = capacity_bytes;
    return cfg;
}

TEST(IntegrityMap, FormatCoversDataRegionOnly)
{
    storage::MemBlockDevice dev(small_media());
    const std::uint64_t total = dev.geometry().num_blocks();
    const std::uint64_t sidecar = storage::IntegrityMap::sidecar_blocks(
        total - 8, dev.geometry().logical_block_size);
    const std::uint64_t data_blocks = total - sidecar;
    auto map = storage::IntegrityMap::format(dev, data_blocks);
    ASSERT_TRUE(map.is_ok()) << map.status().to_string();
    EXPECT_EQ((*map)->data_blocks(), data_blocks);
    EXPECT_TRUE((*map)->covers(0));
    EXPECT_TRUE((*map)->covers(data_blocks - 1));
    EXPECT_FALSE((*map)->covers(data_blocks));
}

TEST(IntegrityMap, PreexistingDataVerifiesCleanAfterFormat)
{
    // Mixed media: blank blocks, a patterned block, and blocks that
    // are non-zero only in their first or only in their last byte, at
    // the first and last data block and on both sides of the chunk
    // boundaries format() reads by. data_blocks is not a multiple of
    // the chunk, so the last read is short.
    constexpr std::uint64_t kChunk =
        storage::IntegrityMap::kFormatChunkBlocks;
    constexpr std::uint64_t kData = 2 * kChunk + 37;
    constexpr std::uint32_t kBs = 1024;
    storage::MemBlockDevice dev(small_media());
    std::vector<std::byte> block(kBs);
    wl::fill_pattern(3, 0, block);
    ASSERT_TRUE(dev.write(17 * kBs, block).is_ok());
    const auto poke = [&](std::uint64_t plba, std::uint32_t byte) {
        const std::byte one{0x01};
        ASSERT_TRUE(dev.write(plba * kBs + byte,
                              std::span<const std::byte>(&one, 1))
                        .is_ok());
    };
    poke(0, 0);
    poke(kChunk - 1, kBs - 1);
    poke(kChunk, 0);
    poke(2 * kChunk - 1, 0);
    poke(2 * kChunk, kBs - 1);
    poke(kData - 1, kBs - 1);

    auto map = storage::IntegrityMap::format(dev, kData);
    ASSERT_TRUE(map.is_ok());
    EXPECT_TRUE((*map)->verify(17, block));
    EXPECT_EQ((*map)->mismatches(), 0u);

    // Every entry is the CRC of the block as read, and the sidecar
    // region is byte-identical to a per-block reference format.
    const std::uint64_t sidecar =
        storage::IntegrityMap::sidecar_blocks(kData, kBs);
    std::vector<std::byte> expected_region(sidecar * kBs);
    storage::IntegrityHeader header;
    header.magic = storage::IntegrityMap::kMagic;
    header.version = storage::IntegrityMap::kVersion;
    header.block_size = kBs;
    header.data_blocks = kData;
    header.header_crc = util::crc32c(&header, sizeof(header));
    std::memcpy(expected_region.data(), &header, sizeof(header));
    std::vector<std::byte> on_media(kBs);
    for (std::uint64_t plba = 0; plba < kData; ++plba) {
        ASSERT_TRUE(dev.read(plba * kBs, on_media).is_ok());
        const std::uint32_t crc = util::crc32c(on_media);
        EXPECT_EQ((*map)->expected(plba), crc) << "plba " << plba;
        std::memcpy(expected_region.data() + kBs + plba * sizeof(crc), &crc,
                    sizeof(crc));
    }
    std::vector<std::byte> region(sidecar * kBs);
    ASSERT_TRUE(dev.read(kData * kBs, region).is_ok());
    EXPECT_TRUE(region == expected_region);

    auto loaded = storage::IntegrityMap::load(dev, kData);
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    for (std::uint64_t plba = 0; plba < kData; ++plba)
        EXPECT_EQ((*loaded)->expected(plba), (*map)->expected(plba))
            << "plba " << plba;
}

TEST(IntegrityMap, DetectsEveryFlippedBlock)
{
    storage::MemBlockDevice dev(small_media());
    auto map_or = storage::IntegrityMap::format(dev, 1024);
    ASSERT_TRUE(map_or.is_ok());
    auto &map = **map_or;
    std::vector<std::byte> block(1024);
    wl::fill_pattern(9, 0, block);
    ASSERT_TRUE(map.record(5, block).is_ok());
    EXPECT_TRUE(map.verify(5, block));
    std::vector<std::byte> damaged = block;
    damaged[511] ^= std::byte{0x01};
    EXPECT_FALSE(map.verify(5, damaged));
    EXPECT_EQ(map.mismatches(), 1u);
    // Uncovered blocks always verify clean (no false positives past
    // the formatted region).
    EXPECT_TRUE(map.verify(100'000, damaged));
}

TEST(IntegrityMap, LoadRoundTripsRecordedChecksums)
{
    storage::MemBlockDevice dev(small_media());
    std::vector<std::byte> block(1024);
    wl::fill_pattern(41, 0, block);
    {
        auto map = storage::IntegrityMap::format(dev, 512);
        ASSERT_TRUE(map.is_ok());
        ASSERT_TRUE((*map)->record(7, block).is_ok());
    }
    auto reloaded = storage::IntegrityMap::load(dev, 512);
    ASSERT_TRUE(reloaded.is_ok()) << reloaded.status().to_string();
    EXPECT_TRUE((*reloaded)->verify(7, block));
    std::vector<std::byte> damaged = block;
    damaged[0] ^= std::byte{0x80};
    EXPECT_FALSE((*reloaded)->verify(7, damaged));
    // Geometry mismatch is a hard load failure, not silent reuse.
    EXPECT_FALSE(storage::IntegrityMap::load(dev, 513).is_ok());
}

// --- Sticky corruption in the fault injector -----------------------------

TEST(StickyCorruption, PersistsAcrossRereads)
{
    storage::MemBlockDevice inner(small_media());
    storage::FaultPlan plan;
    plan.seed = 77;
    plan.schedule.push_back({1, storage::InjectedFault::kCorruptSticky});
    storage::FaultyBlockDevice dev(inner, plan);

    std::vector<std::byte> block(1024), back(1024);
    wl::fill_pattern(5, 0, block);
    ASSERT_TRUE(dev.write(0, block).is_ok());   // op 0: clean write
    ASSERT_TRUE(dev.read(0, back).is_ok());     // op 1: sticky strike
    EXPECT_NE(back, block);
    EXPECT_EQ(dev.counters().get("sticky_corruptions"), 1u);
    // The damage lives in the stored block: every later read (and a
    // direct read of the inner device) returns the same damaged data.
    std::vector<std::byte> again(1024);
    ASSERT_TRUE(dev.read(0, again).is_ok());
    EXPECT_EQ(again, back);
    std::vector<std::byte> raw(1024);
    ASSERT_TRUE(inner.read(0, raw).is_ok());
    EXPECT_EQ(raw, back);
}

TEST(StickyCorruption, OwnRngStreamLeavesOtherDrawsUntouched)
{
    // The same seed must inject hard read errors at the same op
    // indices whether or not sticky corruption is also enabled.
    auto run = [](double sticky_prob) {
        storage::MemBlockDevice inner(small_media());
        storage::FaultPlan plan;
        plan.seed = 1234;
        plan.read_error_prob = 0.2;
        plan.corrupt_sticky_prob = sticky_prob;
        storage::FaultyBlockDevice dev(inner, plan);
        std::vector<std::byte> block(1024);
        std::vector<int> errors;
        for (int i = 0; i < 200; ++i)
            errors.push_back(dev.read(0, block).is_ok() ? 0 : 1);
        return errors;
    };
    EXPECT_EQ(run(0.0), run(0.5));
}

TEST(StickyCorruption, DeterministicUnderFixedSeed)
{
    auto run = [] {
        storage::MemBlockDevice inner(small_media());
        storage::FaultPlan plan;
        plan.seed = 9;
        plan.corrupt_sticky_prob = 0.05;
        storage::FaultyBlockDevice dev(inner, plan);
        std::vector<std::byte> block(1024);
        wl::fill_pattern(1, 0, block);
        for (int i = 0; i < 100; ++i)
            (void)dev.write((i % 32) * 1024, block);
        std::vector<std::uint32_t> crcs;
        for (int i = 0; i < 32; ++i) {
            (void)dev.read(i * 1024, block);
            crcs.push_back(util::crc32c(block));
        }
        return std::make_pair(dev.counters().get("sticky_corruptions"),
                              crcs);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_GT(a.first, 0u);
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace nesc

// --- Controller: verifying read path -------------------------------------

namespace nesc::ctrl {
namespace {

using test::ControllerRig;

/** The integrity rig: 4096 data blocks with an attached CRC sidecar. */
const test::RigOptions kRig{.sidecar_data_blocks = 4096};

/** Flips one stored bit of pLBA @p plba behind the controller. */
void
damage_block(ControllerRig &h, std::uint64_t plba, std::size_t byte = 100)
{
    std::vector<std::byte> raw(1024);
    ASSERT_TRUE(h.device_.read(plba * 1024, raw).is_ok());
    raw[byte] ^= std::byte{0x04};
    ASSERT_TRUE(h.device_.write(plba * 1024, raw).is_ok());
}

TEST(ControllerIntegrity, CleanPathRecordsAndVerifies)
{
    ControllerRig h(kRig);
    auto vf = h.create_vf({{0, 256, 0}}, 256);
    auto drv = h.make_driver(vf);
    std::vector<std::byte> out(8 * 1024), in(8 * 1024);
    wl::fill_pattern(2, 0, out);
    ASSERT_TRUE(drv->write_sync(0, 8, out).is_ok());
    ASSERT_TRUE(drv->read_sync(0, 8, in).is_ok());
    EXPECT_EQ(out, in);
    EXPECT_GT(h.map_->records(), 0u);
    EXPECT_GT(h.map_->verifies(), 0u);
    EXPECT_EQ(h.controller_.integrity_mismatches(), 0u);
    EXPECT_EQ(h.controller_.stats(vf).checksum_errors, 0u);
}

TEST(ControllerIntegrity, FailedChecksumWriteFailsTheBlockWrite)
{
    // The sidecar lives on the same media as the data. When the
    // checksum write fails, the data write must not be acknowledged:
    // after a restart the block could no longer be verified.
    constexpr std::uint64_t kData = 256;
    ControllerRig h({.host_memory_bytes = 8 << 20,
                     .media_bytes = test::sidecar_media_bytes(kData)});
    // Count the media operations formatting takes, so the injected
    // fault lands on the first checksum write after it.
    std::uint64_t format_ops = 0;
    {
        storage::FaultyBlockDevice probe(h.device_, storage::FaultPlan{});
        ASSERT_TRUE(storage::IntegrityMap::format(probe, kData).is_ok());
        format_ops = probe.ops_seen();
    }
    storage::FaultPlan plan;
    plan.schedule.push_back({format_ops, storage::InjectedFault::kWriteError});
    storage::FaultyBlockDevice sidecar(h.device_, plan);
    auto map = storage::IntegrityMap::format(sidecar, kData);
    ASSERT_TRUE(map.is_ok()) << map.status().to_string();
    h.controller_.attach_integrity(map->get());
    auto pf = h.make_driver(pcie::kPhysicalFunctionId);

    auto buffer = h.host_memory_.alloc(1024, 64);
    ASSERT_TRUE(buffer.is_ok());
    std::vector<CompletionStatus> completions;
    ASSERT_TRUE(pf->submit(Opcode::kWrite, 5, 1, *buffer,
                           [&](CompletionStatus s) {
                               completions.push_back(s);
                           })
                    .is_ok());
    h.sim_.run_until_idle();
    // The first attempt fails on the checksum write; the driver's
    // retry records it cleanly.
    EXPECT_EQ(sidecar.counters().get("write_media_errors"), 1u);
    EXPECT_EQ(h.controller_.stats(pcie::kPhysicalFunctionId).media_errors,
              1u);
    EXPECT_EQ(pf->retries(), 1u);
    ASSERT_EQ(completions.size(), 1u);
    EXPECT_EQ(completions[0], CompletionStatus::kOk);
    h.controller_.attach_integrity(nullptr);
}

TEST(ControllerIntegrity, PersistentDamageFailsWithChecksumError)
{
    ControllerRig h(kRig);
    auto vf = h.create_vf({{0, 256, 0}}, 256);
    auto drv = h.make_driver(vf);
    std::vector<std::byte> out(1024), in(1024);
    wl::fill_pattern(4, 0, out);
    ASSERT_TRUE(drv->write_sync(9, 1, out).is_ok());
    damage_block(h, 9);

    // Single-device path: re-reads cannot heal bitrot, so the guest
    // sees a distinct checksum failure, never the corrupt payload.
    util::Status status = drv->read_sync(9, 1, in);
    EXPECT_FALSE(status.is_ok());
    // >= 1: the driver retries retryable statuses, and every retry
    // detects the same persistent damage.
    EXPECT_GE(h.controller_.stats(vf).checksum_errors, 1u);
    EXPECT_GE(h.controller_.integrity_mismatches(), 1u);
    EXPECT_GT(h.controller_.counters().get("checksum_rereads"), 0u);
    EXPECT_GT(h.controller_.counters().get("checksum_mismatches"), 0u);
}

TEST(ControllerIntegrity, DisabledIntegrityDeliversDataUnchecked)
{
    ControllerRig h(kRig);
    auto vf = h.create_vf({{0, 256, 0}}, 256);
    auto drv = h.make_driver(vf);
    std::vector<std::byte> out(1024), in(1024);
    wl::fill_pattern(6, 0, out);
    ASSERT_TRUE(drv->write_sync(3, 1, out).is_ok());
    damage_block(h, 3);
    // Turn verification off through the PF register: the damaged
    // payload now flows through (the pre-integrity behaviour).
    ASSERT_TRUE(
        h.controller_.mmio_write(0, reg::kIntegrityCtrl, 0, 8).is_ok());
    ASSERT_TRUE(drv->read_sync(3, 1, in).is_ok());
    EXPECT_NE(out, in);
    EXPECT_EQ(h.controller_.stats(vf).checksum_errors, 0u);
}

TEST(ControllerIntegrity, RegistersArePfOnlyAndMasterAbortUnattached)
{
    ControllerRig h(kRig);
    auto vf = h.create_vf({{0, 64, 0}}, 64);
    // VF access to the integrity block is a permission fault.
    EXPECT_FALSE(h.controller_.mmio_read(vf, reg::kIntegrityCtrl, 8)
                     .is_ok());
    EXPECT_FALSE(
        h.controller_.mmio_write(vf, reg::kIntegrityCtrl, 1, 8).is_ok());
    // The PF reads back its own configuration.
    EXPECT_EQ(*h.controller_.mmio_read(0, reg::kIntegrityCtrl, 8), 1u);
    EXPECT_EQ(*h.controller_.mmio_read(0, reg::kIntegrityRereadLimit, 8),
              1u);
    // Per-VF mismatch counter is visible on the VF's own page.
    EXPECT_EQ(*h.controller_.mmio_read(vf, reg::kStatChecksumErrors, 8),
              0u);

    // Detached: the whole block master-aborts (all-ones).
    h.controller_.attach_integrity(nullptr);
    EXPECT_EQ(*h.controller_.mmio_read(0, reg::kIntegrityCtrl, 8),
              ~std::uint64_t{0});
    EXPECT_EQ(*h.controller_.mmio_read(0, reg::kScrubStatus, 8),
              ~std::uint64_t{0});
}

TEST(ControllerIntegrity, ScrubFindsColdDamageOnLocalMedia)
{
    ControllerRig h(kRig);
    auto vf = h.create_vf({{0, 256, 0}}, 256);
    auto drv = h.make_driver(vf);
    std::vector<std::byte> out(32 * 1024);
    wl::fill_pattern(8, 0, out);
    ASSERT_TRUE(drv->write_sync(0, 32, out).is_ok());
    damage_block(h, 20);
    (void)vf;

    // No guest read touches block 20; only the scrubber can find it.
    h.mgmt(MgmtCommand::kScrubStart);
    EXPECT_TRUE(h.controller_.scrub_running());
    h.sim_.run_until_idle();
    EXPECT_FALSE(h.controller_.scrub_running());
    EXPECT_EQ(h.controller_.scrub_progress(), 4096u);
    EXPECT_GE(h.controller_.integrity_mismatches(), 1u);
    // Local media has no second copy: the damage is uncorrectable.
    EXPECT_EQ(h.controller_.scrub_errors(), 1u);
    EXPECT_EQ(h.controller_.counters().get("scrubs_completed"), 1u);
}

TEST(ControllerIntegrity, ScrubAbortStopsThePass)
{
    ControllerRig h(kRig);
    h.mgmt(MgmtCommand::kScrubStart);
    h.mgmt(MgmtCommand::kScrubAbort);
    EXPECT_FALSE(h.controller_.scrub_running());
    h.sim_.run_until_idle();
    // The epoch guard kept any in-flight batch from resurrecting it.
    EXPECT_FALSE(h.controller_.scrub_running());
    EXPECT_EQ(h.controller_.counters().get("scrubs_aborted"), 1u);
}

} // namespace
} // namespace nesc::ctrl

// --- Replicated recovery ladder and scrub repair -------------------------

namespace nesc::virt {
namespace {

TestbedConfig
integrity_config()
{
    TestbedConfig config;
    config.device.capacity_bytes = 32ULL << 20;
    config.host_memory_bytes = 64ULL << 20;
    config.integrity = TestbedIntegrityConfig{};
    TestbedReplicationConfig repl;
    repl.backends = 3;
    repl.media = storage::MemBlockDeviceConfig::ramdisk(
        0, 1); // rate 0 = fast; capacity auto-resized by the testbed
    config.replication = repl;
    return config;
}

/** Flips a stored bit of @p plba on backend @p index's raw media. */
void
damage_backend_block(Testbed &bed, std::size_t index, std::uint64_t plba)
{
    storage::BlockDevice &media = bed.replica_media(index);
    std::vector<std::byte> raw(1024);
    ASSERT_TRUE(media.read(plba * 1024, raw).is_ok());
    raw[50] ^= std::byte{0x10};
    ASSERT_TRUE(media.write(plba * 1024, raw).is_ok());
}

/**
 * Finds the pLBA backing the guest image's first block by scanning
 * backend 0's media for the marker block written through the guest.
 */
std::uint64_t
find_plba(Testbed &bed, std::span<const std::byte> marker)
{
    storage::BlockDevice &media = bed.replica_media(0);
    std::vector<std::byte> raw(1024);
    const std::uint64_t blocks = media.geometry().num_blocks();
    for (std::uint64_t b = 0; b < blocks; ++b) {
        if (!media.read(b * 1024, raw).is_ok())
            continue;
        if (std::memcmp(raw.data(), marker.data(), marker.size()) == 0)
            return b;
    }
    return ~std::uint64_t{0};
}

TEST(ReplicatedIntegrity, LadderRepairsDamagedReplicaInline)
{
    auto bed = Testbed::create(integrity_config());
    ASSERT_TRUE(bed.is_ok()) << bed.status().to_string();
    ASSERT_NE((*bed)->integrity_map(), nullptr);
    auto vm = (*bed)->create_nesc_guest("/ladder.img", 64);
    ASSERT_TRUE(vm.is_ok()) << vm.status().to_string();

    std::vector<std::byte> out(1024), in(1024);
    wl::fill_pattern(99, 0, out);
    ASSERT_TRUE((*vm)->raw_disk().write_blocks(0, 1, out).is_ok());
    (*bed)->sim().run_until_idle();

    const std::uint64_t plba = find_plba(**bed, out);
    ASSERT_NE(plba, ~std::uint64_t{0});
    // Damage two of the three copies: whichever backend serves the
    // read, the ladder must locate the last verified copy and repair
    // the damaged serving copy in place.
    damage_backend_block(**bed, 0, plba);
    damage_backend_block(**bed, 1, plba);

    ASSERT_TRUE((*vm)->raw_disk().read_blocks(0, 1, in).is_ok());
    EXPECT_EQ(out, in); // never the corrupt payload
    drv::PfDriver &pf = (*bed)->pf();
    EXPECT_TRUE(pf.integrity_attached());
    auto mismatches = pf.integrity_mismatches();
    ASSERT_TRUE(mismatches.is_ok());
    auto repairs = pf.integrity_repairs();
    ASSERT_TRUE(repairs.is_ok());
    // If the read happened to route to the undamaged backend no
    // mismatch fires; otherwise the ladder must have repaired.
    if (*mismatches > 0) {
        EXPECT_GE(*repairs, 1u);
    }

    // A follow-up scrub heals every remaining damaged copy.
    ASSERT_TRUE(pf.scrub_start().is_ok());
    ASSERT_TRUE(pf.scrub_wait().is_ok());
    repl::ReplicaSet *set = (*bed)->replicas();
    EXPECT_TRUE(*set->verify_equal(0, 1));
    EXPECT_TRUE(*set->verify_equal(0, 2));
    ASSERT_TRUE((*vm)->raw_disk().read_blocks(0, 1, in).is_ok());
    EXPECT_EQ(out, in);
}

TEST(ReplicatedIntegrity, ScrubRepairsColdDamageFromReplica)
{
    auto bed = Testbed::create(integrity_config());
    ASSERT_TRUE(bed.is_ok()) << bed.status().to_string();
    auto vm = (*bed)->create_nesc_guest("/scrub.img", 64);
    ASSERT_TRUE(vm.is_ok());

    std::vector<std::byte> out(8 * 1024);
    wl::fill_pattern(31, 0, out);
    ASSERT_TRUE((*vm)->raw_disk().write_blocks(0, 8, out).is_ok());
    (*bed)->sim().run_until_idle();

    const std::uint64_t plba =
        find_plba(**bed, std::span<const std::byte>(out).first(1024));
    ASSERT_NE(plba, ~std::uint64_t{0});
    damage_backend_block(**bed, 2, plba);
    repl::ReplicaSet *set = (*bed)->replicas();
    EXPECT_FALSE(*set->verify_equal(0, 2));

    drv::PfDriver &pf = (*bed)->pf();
    ASSERT_TRUE(pf.set_scrub_rate(128, 50'000).is_ok());
    ASSERT_TRUE(pf.scrub_start().is_ok());
    auto polls = pf.scrub_wait();
    ASSERT_TRUE(polls.is_ok()) << polls.status().to_string();
    EXPECT_FALSE(*pf.scrub_running());

    // The scrubber verified every backend's copy and repaired the
    // damaged one from a verified peer: bit-identity restored.
    EXPECT_TRUE(*set->verify_equal(0, 2));
    EXPECT_TRUE(*set->verify_equal(0, 1));
    auto repairs = pf.integrity_repairs();
    ASSERT_TRUE(repairs.is_ok());
    EXPECT_GE(*repairs, 1u);
    EXPECT_EQ(*pf.scrub_errors(), 0u);
    EXPECT_EQ(set->repairs(), *repairs);
}

TEST(ReplicatedIntegrity, ScrubReadRefusesStaleCopies)
{
    sim::Simulator sim;
    repl::ReplicaSetConfig cfg;
    cfg.quorum = 1;
    repl::ReplicaSet set(sim, cfg);
    repl::BackendConfig backend;
    backend.link_bytes_per_sec = 0;
    backend.link_latency = 1'000;
    backend.journal_blocks = 16;
    const storage::MemBlockDeviceConfig media =
        storage::MemBlockDeviceConfig::ramdisk(0, 1 << 20);
    std::vector<std::unique_ptr<storage::MemBlockDevice>> devs;
    for (int i = 0; i < 2; ++i) {
        devs.push_back(std::make_unique<storage::MemBlockDevice>(media));
        set.add_backend(*devs.back(), backend);
    }
    std::vector<std::byte> data(1024), in(1024);
    wl::fill_pattern(12, 0, data);
    bool fired = false;
    set.write(4, data, [&](util::Status s) {
        EXPECT_TRUE(s.is_ok());
        fired = true;
    });
    sim.run_until_idle();
    ASSERT_TRUE(fired);

    EXPECT_TRUE(set.scrub_read(0, 4, in).is_ok());
    EXPECT_EQ(in, data);
    // A demoted backend must be refused as a scrub source, as must an
    // out-of-range backend index.
    set.demote_backend(1);
    EXPECT_FALSE(set.scrub_read(1, 4, in).is_ok());
    EXPECT_FALSE(set.scrub_read(9, 4, in).is_ok());
}

} // namespace
} // namespace nesc::virt

// --- Extent-tree format v2 (checksummed nodes) ---------------------------

namespace nesc::extent {
namespace {

ExtentList
many_extents(std::size_t count)
{
    ExtentList list;
    for (std::size_t i = 0; i < count; ++i)
        list.push_back(Extent{i * 8, 4, 1000 + i * 4});
    return list;
}

TEST(ChecksummedTree, BuildsVerifiesAndLooksUp)
{
    pcie::HostMemory memory(8 << 20);
    TreeConfig config;
    config.fanout = 8;
    config.checksummed = true;
    auto image = ExtentTreeImage::build(memory, many_extents(200), config);
    ASSERT_TRUE(image.is_ok()) << image.status().to_string();
    // Walks verify every node's trailer silently on the good path.
    auto hit = lookup(memory, image->root(), 3 * 8 + 1);
    ASSERT_TRUE(hit.is_ok()) << hit.status().to_string();
    EXPECT_EQ(hit->outcome, LookupOutcome::kMapped);
    EXPECT_EQ(hit->extent.first_pblock, 1000u + 3 * 4);
    auto all = enumerate(memory, image->root());
    ASSERT_TRUE(all.is_ok());
    EXPECT_EQ(all->size(), 200u);
}

TEST(ChecksummedTree, FlippedChildPointerFaultsInsteadOfWalkingOff)
{
    pcie::HostMemory memory(8 << 20);
    TreeConfig config;
    config.fanout = 8;
    config.checksummed = true;
    auto image = ExtentTreeImage::build(memory, many_extents(200), config);
    ASSERT_TRUE(image.is_ok());

    // Corrupt entry 0 of the root: point its child somewhere
    // plausible but wrong. Without the trailer this descends into
    // unrelated memory; with it the walk faults immediately.
    auto rec = memory.read_pod<NodePtrRecord>(entry_addr(image->root(), 0));
    ASSERT_TRUE(rec.is_ok());
    NodePtrRecord bad = *rec;
    bad.child ^= 0x40;
    ASSERT_TRUE(
        memory.write_pod(entry_addr(image->root(), 0), bad).is_ok());

    auto hit = lookup(memory, image->root(), 0);
    EXPECT_FALSE(hit.is_ok());
    EXPECT_EQ(hit.status().code(), util::ErrorCode::kDataLoss);
}

TEST(ChecksummedTree, PruneResealsTheParentNode)
{
    pcie::HostMemory memory(8 << 20);
    TreeConfig config;
    config.fanout = 8;
    config.checksummed = true;
    auto image = ExtentTreeImage::build(memory, many_extents(200), config);
    ASSERT_TRUE(image.is_ok());
    auto pruned = image->prune_range(0, 64);
    ASSERT_TRUE(pruned.is_ok());
    EXPECT_GT(*pruned, 0u);
    // The pruned region reads as kPruned (a legal, verified outcome),
    // not as a checksum fault; untouched regions still resolve.
    auto hole = lookup(memory, image->root(), 0);
    ASSERT_TRUE(hole.is_ok()) << hole.status().to_string();
    EXPECT_EQ(hole->outcome, LookupOutcome::kPruned);
    auto hit = lookup(memory, image->root(), 100 * 8);
    ASSERT_TRUE(hit.is_ok());
    EXPECT_EQ(hit->outcome, LookupOutcome::kMapped);
}

TEST(ChecksummedTree, V1ImagesAreByteIdenticalToBefore)
{
    // The default config must keep writing v1 magic with no trailer:
    // golden figures depend on the unchanged layout.
    pcie::HostMemory memory(1 << 20);
    auto image = ExtentTreeImage::build(memory, many_extents(4));
    ASSERT_TRUE(image.is_ok());
    auto header = memory.read_pod<NodeHeaderRecord>(image->root());
    ASSERT_TRUE(header.is_ok());
    EXPECT_EQ(header->magic, kNodeMagic);
    EXPECT_EQ(image->footprint_bytes(), node_footprint(64));
}

} // namespace
} // namespace nesc::extent

// --- nestfs metadata checksums + fsck seeded corruption ------------------

namespace nesc::fs {
namespace {

storage::MemBlockDeviceConfig
fast_fs_media()
{
    return storage::MemBlockDeviceConfig::ramdisk(0, 8 << 20);
}

NestFsConfig
checksummed_config()
{
    NestFsConfig cfg;
    cfg.meta_checksums = true;
    return cfg;
}

/**
 * Populated volume with a directory tree and four 8-block files,
 * cleanly unmounted, plus raw-media corruption helpers for seeding
 * fsck findings.
 */
class SeededVolume {
  public:
    explicit SeededVolume(NestFsConfig cfg)
        : device_(fast_fs_media()), io_(sim_, device_)
    {
        // No journal: mount-time replay would paper over the raw
        // corruption these tests seed (fsck is exactly for the damage
        // classes journaling cannot undo).
        cfg.journal_mode = JournalMode::kNone;
        auto fs = NestFs::format(io_, cfg);
        EXPECT_TRUE(fs.is_ok()) << fs.status().to_string();
        EXPECT_TRUE((*fs)->mkdir_p("/a/b", 0755).is_ok());
        for (int i = 0; i < 4; ++i) {
            auto ino =
                (*fs)->create("/a/b/f" + std::to_string(i), 0644);
            EXPECT_TRUE(ino.is_ok());
            inodes_.push_back(*ino);
            EXPECT_TRUE(
                (*fs)->truncate(*ino, 8 * kFsBlockSize).is_ok());
            EXPECT_TRUE((*fs)->allocate_range(*ino, 0, 8).is_ok());
            auto extents = (*fs)->fiemap(*ino);
            EXPECT_TRUE(extents.is_ok());
            EXPECT_FALSE(extents->empty());
            first_pblock_.push_back(extents->front().first_pblock);
        }
        EXPECT_TRUE((*fs)->unmount().is_ok());
    }

    SuperBlock
    read_super()
    {
        std::vector<std::byte> raw(kFsBlockSize);
        EXPECT_TRUE(device_.read(0, raw).is_ok());
        SuperBlock sb;
        std::memcpy(&sb, raw.data(), sizeof(sb));
        return sb;
    }

    /** Rewrites one on-disk inode through @p mutate (no CRC fixup). */
    void
    patch_inode(InodeId ino, void (*mutate)(DiskInode &))
    {
        const SuperBlock sb = read_super();
        const std::uint64_t blockno =
            sb.itable_start + (ino - 1) / kInodesPerBlock;
        const std::uint32_t slot = (ino - 1) % kInodesPerBlock;
        std::vector<std::byte> raw(kFsBlockSize);
        ASSERT_TRUE(device_.read(blockno * kFsBlockSize, raw).is_ok());
        DiskInode di;
        std::memcpy(&di, raw.data() + slot * kInodeSize, sizeof(di));
        mutate(di);
        std::memcpy(raw.data() + slot * kInodeSize, &di, sizeof(di));
        ASSERT_TRUE(device_.write(blockno * kFsBlockSize, raw).is_ok());
    }

    /** Marks one currently-free data block allocated in the bitmap. */
    std::uint64_t
    seed_bitmap_leak()
    {
        const SuperBlock sb = read_super();
        std::vector<std::byte> raw(kFsBlockSize);
        for (std::uint64_t b = sb.total_blocks - 1; b >= sb.data_start;
             --b) {
            const std::uint64_t blockno =
                sb.bitmap_start + b / (8 * kFsBlockSize);
            const std::uint64_t bit = b % (8 * kFsBlockSize);
            EXPECT_TRUE(
                device_.read(blockno * kFsBlockSize, raw).is_ok());
            const auto mask =
                static_cast<std::byte>(1u << (bit % 8));
            if ((raw[bit / 8] & mask) == std::byte{0}) {
                raw[bit / 8] |= mask;
                EXPECT_TRUE(
                    device_.write(blockno * kFsBlockSize, raw).is_ok());
                return b;
            }
        }
        return 0;
    }

    util::Result<std::unique_ptr<NestFs>>
    mount()
    {
        return NestFs::mount(io_);
    }

    sim::Simulator sim_;
    storage::MemBlockDevice device_;
    blk::DeviceBlockIo io_;
    std::vector<InodeId> inodes_;
    std::vector<std::uint64_t> first_pblock_;
};

TEST(NestFsMetaChecksums, CleanVolumeMountsAndFscksClean)
{
    SeededVolume vol(checksummed_config());
    auto fs = vol.mount();
    ASSERT_TRUE(fs.is_ok()) << fs.status().to_string();
    EXPECT_TRUE((*fs)->meta_checksums());
    EXPECT_EQ((*fs)->superblock().version, kSuperVersionChecksummed);
    auto report = (*fs)->fsck();
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_TRUE(report->clean)
        << (report->errors.empty() ? "" : report->errors.front());
    EXPECT_EQ(report->checksum_errors, 0u);
}

TEST(NestFsMetaChecksums, V1VolumesStayUncheckedAndCompatible)
{
    SeededVolume vol(NestFsConfig{});
    auto fs = vol.mount();
    ASSERT_TRUE(fs.is_ok());
    EXPECT_FALSE((*fs)->meta_checksums());
    EXPECT_EQ((*fs)->superblock().version, kSuperVersionBase);
    auto report = (*fs)->fsck();
    ASSERT_TRUE(report.is_ok());
    EXPECT_TRUE(report->clean);
    EXPECT_EQ(report->checksum_errors, 0u);
}

TEST(NestFsMetaChecksums, CorruptSuperblockRefusesToMount)
{
    SeededVolume vol(checksummed_config());
    // Flip a geometry field the magic check would never notice.
    std::vector<std::byte> raw(kFsBlockSize);
    ASSERT_TRUE(vol.device_.read(0, raw).is_ok());
    SuperBlock sb;
    std::memcpy(&sb, raw.data(), sizeof(sb));
    sb.data_start += 1;
    std::memcpy(raw.data(), &sb, sizeof(sb));
    ASSERT_TRUE(vol.device_.write(0, raw).is_ok());
    auto fs = vol.mount();
    ASSERT_FALSE(fs.is_ok());
    EXPECT_EQ(fs.status().code(), util::ErrorCode::kDataLoss);
}

TEST(NestFsMetaChecksums, FsckFlagsInodeBitrot)
{
    SeededVolume vol(checksummed_config());
    // Damage a file inode's size field directly in the inode table;
    // the stale CRC convicts it.
    vol.patch_inode(vol.inodes_[2],
                    [](DiskInode &di) { di.size_bytes += kFsBlockSize; });
    auto fs = vol.mount();
    ASSERT_TRUE(fs.is_ok()) << fs.status().to_string();
    auto report = (*fs)->fsck();
    ASSERT_TRUE(report.is_ok());
    EXPECT_FALSE(report->clean);
    EXPECT_GE(report->checksum_errors, 1u);
    bool named = false;
    for (const auto &e : report->errors)
        named |= e.find("checksum") != std::string::npos;
    EXPECT_TRUE(named);
}

// --- fsck against seeded structural corruption ---------------------------

TEST(FsckSeededCorruption, DetectsBitmapLeak)
{
    SeededVolume vol(NestFsConfig{});
    const std::uint64_t leaked = vol.seed_bitmap_leak();
    ASSERT_NE(leaked, 0u);
    auto fs = vol.mount();
    ASSERT_TRUE(fs.is_ok());
    auto report = (*fs)->fsck();
    ASSERT_TRUE(report.is_ok());
    EXPECT_FALSE(report->clean);
    EXPECT_EQ(report->leaked_blocks, 1u);
}

namespace {
std::uint64_t g_patch_pblock = 0;
} // namespace

TEST(FsckSeededCorruption, DetectsDoubleAllocatedBlock)
{
    SeededVolume vol(NestFsConfig{});
    // Point f1's first extent at f0's allocation: that block is now
    // referenced twice (and f1's own blocks leak).
    g_patch_pblock = vol.first_pblock_[0];
    vol.patch_inode(vol.inodes_[1], [](DiskInode &di) {
        di.extents[0].first_pblock = g_patch_pblock;
    });
    auto fs = vol.mount();
    ASSERT_TRUE(fs.is_ok());
    auto report = (*fs)->fsck();
    ASSERT_TRUE(report.is_ok());
    EXPECT_FALSE(report->clean);
    bool found = false;
    for (const auto &e : report->errors)
        found |= e.find("referenced more than once") != std::string::npos;
    EXPECT_TRUE(found);
    EXPECT_GT(report->leaked_blocks, 0u);
}

TEST(FsckSeededCorruption, DetectsOutOfRangeExtent)
{
    SeededVolume vol(NestFsConfig{});
    // Point f3's first extent past the end of the volume.
    const SuperBlock sb = vol.read_super();
    g_patch_pblock = sb.total_blocks + 100;
    vol.patch_inode(vol.inodes_[3], [](DiskInode &di) {
        di.extents[0].first_pblock = g_patch_pblock;
    });
    auto fs = vol.mount();
    ASSERT_TRUE(fs.is_ok());
    auto report = (*fs)->fsck();
    ASSERT_TRUE(report.is_ok());
    EXPECT_FALSE(report->clean);
    bool found = false;
    for (const auto &e : report->errors)
        found |= e.find("out-of-area") != std::string::npos;
    EXPECT_TRUE(found);
}

} // namespace
} // namespace nesc::fs
