/**
 * @file
 * The bare-metal controller rig the device-level tests share: a
 * simulator, host memory, DRAM media (optionally behind a fault
 * injector, optionally carrying a CRC sidecar), an IRQ controller, the
 * NeSC Controller and its BAR router, plus the PF management sequences
 * every such test repeats (create a VF, program DMA windows, repoint a
 * tree, release quarantine) and a raw guest for hand-built rings.
 *
 * Members are public: a test that needs more than the rig builds (say,
 * replicas) attaches it to them.
 */
#ifndef NESC_TESTS_CONTROLLER_RIG_H
#define NESC_TESTS_CONTROLLER_RIG_H

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "drivers/function_driver.h"
#include "extent/tree_image.h"
#include "nesc/controller.h"
#include "pcie/host_ring.h"
#include "pcie/mmio.h"
#include "storage/faulty_block_device.h"
#include "storage/integrity_map.h"
#include "storage/mem_block_device.h"

namespace nesc::test {

/** What a rig is built from; the defaults are the common harness. */
struct RigOptions {
    std::uint64_t host_memory_bytes = 32 << 20;
    /** Media size; ignored when sidecar_data_blocks is set. */
    std::uint64_t media_bytes = 16 << 20;
    ctrl::ControllerConfig config{.max_vfs = 4};
    /** Puts a FaultyBlockDevice with this plan between controller and media. */
    std::optional<storage::FaultPlan> faults{};
    /**
     * Non-zero: media holds this many data blocks plus their CRC
     * sidecar, which the rig formats and attaches to the controller.
     */
    std::uint64_t sidecar_data_blocks = 0;
};

/** Media bytes for @p data_blocks plus their CRC sidecar. */
inline std::uint64_t
sidecar_media_bytes(std::uint64_t data_blocks)
{
    return (data_blocks +
            storage::IntegrityMap::sidecar_blocks(data_blocks, 1024)) *
           1024;
}

class ControllerRig {
  public:
    explicit ControllerRig(const RigOptions &options = {})
        : host_memory_(options.host_memory_bytes),
          device_(storage::MemBlockDeviceConfig{
              .capacity_bytes =
                  options.sidecar_data_blocks != 0
                      ? sidecar_media_bytes(options.sidecar_data_blocks)
                      : options.media_bytes}),
          faulty_(options.faults ? std::make_unique<storage::FaultyBlockDevice>(
                                       device_, *options.faults)
                                 : nullptr),
          irq_(sim_),
          controller_(sim_, host_memory_,
                      faulty_ ? static_cast<storage::BlockDevice &>(*faulty_)
                              : device_,
                      irq_, options.config),
          bar_(controller_, 4096, controller_.num_functions())
    {
        if (options.sidecar_data_blocks == 0)
            return;
        auto map =
            storage::IntegrityMap::format(device_, options.sidecar_data_blocks);
        EXPECT_TRUE(map.is_ok()) << map.status().to_string();
        map_ = std::move(map).value();
        controller_.attach_integrity(map_.get());
    }

    /** Creates VF @p fn mapped by @p extents through the PF mgmt block. */
    pcie::FunctionId
    create_vf(const extent::ExtentList &extents, std::uint64_t size_blocks,
              pcie::FunctionId fn = 1, const extent::TreeConfig &tree = {})
    {
        auto image =
            extent::ExtentTreeImage::build(host_memory_, extents, tree);
        EXPECT_TRUE(image.is_ok());
        trees_.push_back(std::move(image).value());
        return create_vf_at_root(trees_.back().root(), size_blocks, fn);
    }

    /** Creates VF @p fn over the tree already rooted at @p root. */
    pcie::FunctionId
    create_vf_at_root(pcie::HostAddr root, std::uint64_t size_blocks,
                      pcie::FunctionId fn)
    {
        pf_write(ctrl::reg::kMgmtVfId, fn);
        pf_write(ctrl::reg::kMgmtExtentRoot, root);
        pf_write(ctrl::reg::kMgmtDeviceSize, size_blocks);
        mgmt(ctrl::MgmtCommand::kCreateVf);
        return fn;
    }

    void
    pf_write(std::uint64_t offset, std::uint64_t value)
    {
        ASSERT_TRUE(controller_.mmio_write(0, offset, value, 8).is_ok());
    }

    /** Issues @p command; the mgmt block must answer @p expect. */
    void
    mgmt(ctrl::MgmtCommand command,
         ctrl::MgmtStatus expect = ctrl::MgmtStatus::kOk)
    {
        pf_write(ctrl::reg::kMgmtCommand, static_cast<std::uint64_t>(command));
        ASSERT_EQ(*controller_.mmio_read(0, ctrl::reg::kMgmtStatus, 4),
                  static_cast<std::uint64_t>(expect));
    }

    /** PF grants @p fn DMA access to [base, base+size). */
    void
    add_window(pcie::FunctionId fn, pcie::HostAddr base, std::uint64_t size)
    {
        pf_write(ctrl::reg::kMgmtVfId, fn);
        pf_write(ctrl::reg::kDmaWindowBase, base);
        pf_write(ctrl::reg::kDmaWindowSize, size);
        mgmt(ctrl::MgmtCommand::kAddDmaWindow);
    }

    /** Windows @p fn onto the latest tree the rig built. */
    void
    window_tree(pcie::FunctionId fn)
    {
        const auto [base, size] = trees_.back().bounds();
        if (size != 0)
            add_window(fn, base, size);
    }

    /** Repoints @p fn's tree at @p root via the PF mgmt block. */
    void
    set_extent_root(pcie::FunctionId fn, pcie::HostAddr root)
    {
        pf_write(ctrl::reg::kMgmtVfId, fn);
        pf_write(ctrl::reg::kMgmtExtentRoot, root);
        mgmt(ctrl::MgmtCommand::kSetExtentRoot);
    }

    void
    release_quarantine(pcie::FunctionId fn)
    {
        pf_write(ctrl::reg::kMgmtVfId, fn);
        mgmt(ctrl::MgmtCommand::kReleaseQuarantine);
    }

    std::unique_ptr<drv::FunctionDriver>
    make_driver(pcie::FunctionId fn,
                const drv::FunctionDriverConfig &config = {})
    {
        auto driver = std::make_unique<drv::FunctionDriver>(
            sim_, host_memory_, bar_, irq_, fn, config);
        EXPECT_TRUE(driver->init().is_ok());
        return driver;
    }

    sim::Simulator sim_;
    pcie::HostMemory host_memory_;
    storage::MemBlockDevice device_;
    std::unique_ptr<storage::FaultyBlockDevice> faulty_;
    /** The sidecar; outlives the controller it is attached to. */
    std::unique_ptr<storage::IntegrityMap> map_;
    pcie::InterruptController irq_;
    ctrl::Controller controller_;
    pcie::BarPageRouter bar_;
    std::vector<extent::ExtentTreeImage> trees_;
};

/**
 * Hand-rolled guest rings with raw record control: lets a test submit
 * byte-exact descriptors (including invalid ones no driver would
 * build) and inspect the raw completions.
 */
struct RawGuest {
    RawGuest(ControllerRig &h, pcie::FunctionId fn, std::uint32_t entries = 32)
        : h_(h), fn_(fn), entries_(entries)
    {
        cmd_base_ = *h.host_memory_.alloc(cmd_footprint(), 64);
        comp_base_ = *h.host_memory_.alloc(comp_footprint(), 64);
        buffer_ = *h.host_memory_.alloc(64 * 1024, 4096);
        EXPECT_TRUE(pcie::HostRing::create(h.host_memory_, cmd_base_, entries,
                                           sizeof(ctrl::CommandRecord))
                        .is_ok());
        EXPECT_TRUE(pcie::HostRing::create(h.host_memory_, comp_base_,
                                           entries * 2,
                                           sizeof(ctrl::CompletionRecord))
                        .is_ok());
        EXPECT_TRUE(h.controller_
                        .mmio_write(fn, ctrl::reg::kCmdRingBase, cmd_base_, 8)
                        .is_ok());
        EXPECT_TRUE(
            h.controller_
                .mmio_write(fn, ctrl::reg::kCompRingBase, comp_base_, 8)
                .is_ok());
    }

    std::uint64_t
    cmd_footprint() const
    {
        return pcie::HostRing::footprint(entries_, sizeof(ctrl::CommandRecord));
    }

    std::uint64_t
    comp_footprint() const
    {
        return pcie::HostRing::footprint(entries_ * 2,
                                         sizeof(ctrl::CompletionRecord));
    }

    /** Confines the guest's DMA to its rings, buffer and the latest tree. */
    void
    window_all()
    {
        h_.add_window(fn_, cmd_base_, cmd_footprint());
        h_.add_window(fn_, comp_base_, comp_footprint());
        h_.add_window(fn_, buffer_, 64 * 1024);
        h_.window_tree(fn_);
    }

    void
    push(const ctrl::CommandRecord &rec)
    {
        auto ring = pcie::HostRing::attach(h_.host_memory_, cmd_base_);
        ASSERT_TRUE(ring.is_ok());
        std::vector<std::byte> buf(sizeof(rec));
        std::memcpy(buf.data(), &rec, sizeof(rec));
        ASSERT_TRUE(ring.value().push(buf).is_ok());
    }

    ctrl::CommandRecord
    valid_write(std::uint64_t vlba = 0, std::uint32_t nblocks = 1)
    {
        ctrl::CommandRecord rec{};
        rec.vlba = vlba;
        rec.nblocks = nblocks;
        rec.opcode = static_cast<std::uint8_t>(ctrl::Opcode::kWrite);
        rec.host_buffer = buffer_;
        rec.tag = next_tag_++;
        return rec;
    }

    void
    doorbell()
    {
        EXPECT_TRUE(
            h_.controller_.mmio_write(fn_, ctrl::reg::kDoorbell, 1, 8).is_ok());
    }

    std::vector<ctrl::CompletionRecord>
    drain_completions()
    {
        std::vector<ctrl::CompletionRecord> out;
        auto ring = pcie::HostRing::attach(h_.host_memory_, comp_base_);
        if (!ring.is_ok())
            return out;
        std::vector<std::byte> buf(sizeof(ctrl::CompletionRecord));
        for (;;) {
            auto popped = ring.value().pop(buf);
            if (!popped.is_ok() || !popped.value())
                break;
            ctrl::CompletionRecord rec;
            std::memcpy(&rec, buf.data(), sizeof(rec));
            out.push_back(rec);
        }
        return out;
    }

    ControllerRig &h_;
    pcie::FunctionId fn_;
    std::uint32_t entries_;
    pcie::HostAddr cmd_base_ = pcie::kNullHostAddr;
    pcie::HostAddr comp_base_ = pcie::kNullHostAddr;
    pcie::HostAddr buffer_ = pcie::kNullHostAddr;
    std::uint64_t next_tag_ = 1;
};

} // namespace nesc::test

#endif // NESC_TESTS_CONTROLLER_RIG_H
