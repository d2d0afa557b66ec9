/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components:
 * extent-tree build/serialize, the software walker, the BTLB, the
 * event queue, host-memory allocation, nestfs data ops and range
 * allocation, and the checksum kernels (CRC32C, the journal checksum,
 * integrity sidecar format). These measure wall-clock cost of the *model* (not simulated
 * time) and guard against performance regressions in the library
 * itself.
 */
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "blocklayer/device_block_io.h"
#include "extent/tree_image.h"
#include "extent/walker.h"
#include "fs/nestfs.h"
#include "nesc/btlb.h"
#include "pcie/host_memory.h"
#include "sim/simulator.h"
#include "storage/integrity_map.h"
#include "storage/mem_block_device.h"
#include "util/crc32c.h"
#include "util/journal_checksum.h"
#include "util/rng.h"

using namespace nesc;

namespace {

extent::ExtentList
make_extents(std::uint64_t count)
{
    extent::ExtentList extents;
    extents.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i)
        extents.push_back(extent::Extent{i * 3, 2, 1000 + i * 7});
    return extents;
}

void
BM_ExtentTreeBuild(benchmark::State &state)
{
    const auto extents = make_extents(state.range(0));
    pcie::HostMemory memory(64ULL << 20);
    for (auto _ : state) {
        auto image = extent::ExtentTreeImage::build(memory, extents);
        benchmark::DoNotOptimize(image);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExtentTreeBuild)->Arg(64)->Arg(1024)->Arg(16384);

void
BM_SoftwareWalkerLookup(benchmark::State &state)
{
    const auto extents = make_extents(state.range(0));
    pcie::HostMemory memory(64ULL << 20);
    auto image = extent::ExtentTreeImage::build(memory, extents);
    util::Rng rng(1);
    for (auto _ : state) {
        auto result = extent::lookup(memory, image->root(),
                                     rng.next_below(state.range(0) * 3));
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SoftwareWalkerLookup)->Arg(64)->Arg(16384);

void
BM_BtlbLookup(benchmark::State &state)
{
    ctrl::Btlb btlb(8);
    for (std::uint16_t fn = 1; fn <= 8; ++fn)
        btlb.insert(fn, extent::Extent{0, 1024, fn * 10000ULL});
    util::Rng rng(2);
    for (auto _ : state) {
        auto hit = btlb.lookup(
            static_cast<pcie::FunctionId>(1 + rng.next_below(8)),
            rng.next_below(1024));
        benchmark::DoNotOptimize(hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtlbLookup);

void
BM_SimulatorEventChurn(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator sim;
        int fired = 0;
        for (int i = 0; i < 1000; ++i)
            sim.schedule_in(static_cast<sim::Duration>(i % 17),
                            [&fired]() { ++fired; });
        sim.run_until_idle();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventChurn);

void
BM_HostMemoryAllocFree(benchmark::State &state)
{
    pcie::HostMemory memory(64ULL << 20);
    util::Rng rng(3);
    for (auto _ : state) {
        auto a = memory.alloc(64 + rng.next_below(4096), 8);
        benchmark::DoNotOptimize(a);
        if (a.is_ok())
            (void)memory.free(*a);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostMemoryAllocFree);

void
BM_NestFsWrite4k(benchmark::State &state)
{
    sim::Simulator sim;
    storage::MemBlockDeviceConfig dev_cfg;
    dev_cfg.capacity_bytes = 64ULL << 20;
    dev_cfg.read_bytes_per_sec = 0; // timing-free functional run
    dev_cfg.write_bytes_per_sec = 0;
    dev_cfg.access_latency = 0;
    storage::MemBlockDevice device(dev_cfg);
    blk::DeviceBlockIo io(sim, device);
    auto fs = fs::NestFs::format(io);
    auto ino = fs.value()->create("/bench", 0644);
    std::vector<std::byte> buf(4096, std::byte{0x5a});
    std::uint64_t offset = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fs.value()->write(*ino, offset % (32ULL << 20), buf));
        offset += 4096;
    }
    state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_NestFsWrite4k);

/** allocate_range of 16 Ki blocks on a fresh 32 MiB volume. */
void
BM_NestFsAllocateRange(benchmark::State &state)
{
    constexpr std::uint64_t kBlocks = 16 * 1024;
    sim::Simulator sim;
    storage::MemBlockDeviceConfig dev_cfg;
    dev_cfg.capacity_bytes = 32ULL << 20;
    dev_cfg.read_bytes_per_sec = 0;
    dev_cfg.write_bytes_per_sec = 0;
    dev_cfg.access_latency = 0;
    storage::MemBlockDevice device(dev_cfg);
    blk::DeviceBlockIo io(sim, device);
    for (auto _ : state) {
        state.PauseTiming();
        auto fs = fs::NestFs::format(io).value();
        const fs::InodeId ino = fs->create("/image", 0644).value();
        state.ResumeTiming();
        benchmark::DoNotOptimize(fs->allocate_range(ino, 0, kBlocks));
    }
    // Host time per allocated block, printed with an SI prefix.
    state.counters["time_per_block"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kBlocks),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_NestFsAllocateRange)->Unit(benchmark::kMicrosecond);

std::vector<std::byte>
random_kib()
{
    std::vector<std::byte> data(1024);
    util::Rng rng(4);
    for (std::byte &b : data)
        b = static_cast<std::byte>(rng.next());
    return data;
}

void
BM_Crc32c1KiB(benchmark::State &state)
{
    const std::vector<std::byte> data = random_kib();
    for (auto _ : state)
        benchmark::DoNotOptimize(util::crc32c(data));
    state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Crc32c1KiB);

void
BM_JournalChecksum1KiB(benchmark::State &state)
{
    const std::vector<std::byte> data = random_kib();
    for (auto _ : state)
        benchmark::DoNotOptimize(util::journal_checksum(data));
    state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_JournalChecksum1KiB);

/** Sidecar format over a fresh, never-written 81,920 x 1 KiB device. */
void
BM_IntegrityFormatBlank(benchmark::State &state)
{
    constexpr std::uint64_t kDataBlocks = 81'920;
    storage::MemBlockDeviceConfig cfg;
    cfg.capacity_bytes =
        (kDataBlocks +
         storage::IntegrityMap::sidecar_blocks(kDataBlocks, 1024)) *
        1024;
    std::unique_ptr<storage::MemBlockDevice> device;
    for (auto _ : state) {
        // A fresh device per iteration, so the first-touch page faults
        // of reading blank media are timed as in a testbed's set-up.
        state.PauseTiming();
        device.reset();
        device = std::make_unique<storage::MemBlockDevice>(cfg);
        state.ResumeTiming();
        benchmark::DoNotOptimize(
            storage::IntegrityMap::format(*device, kDataBlocks));
    }
    state.SetItemsProcessed(state.iterations() * kDataBlocks);
}
BENCHMARK(BM_IntegrityFormatBlank)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
