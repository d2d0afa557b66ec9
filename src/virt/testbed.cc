#include "testbed.h"

#include <algorithm>
#include <vector>

#include "util/units.h"

namespace nesc::virt {

namespace {

/**
 * Extra bytes the media needs for the checksum sidecar, so the usable
 * data region keeps the configured capacity.
 */
std::uint64_t
sidecar_bytes(std::uint64_t capacity_bytes, std::uint32_t block_size)
{
    return storage::IntegrityMap::sidecar_blocks(
               capacity_bytes / block_size, block_size) *
           static_cast<std::uint64_t>(block_size);
}

std::unique_ptr<storage::BlockDevice>
make_device(const TestbedConfig &config)
{
    if (config.flash) {
        storage::FlashConfig flash = *config.flash;
        if (config.integrity)
            flash.capacity_bytes += sidecar_bytes(flash.capacity_bytes,
                                                  flash.logical_block_size);
        return std::make_unique<storage::FlashBlockDevice>(flash);
    }
    storage::MemBlockDeviceConfig device = config.device;
    if (config.integrity)
        device.capacity_bytes += sidecar_bytes(device.capacity_bytes,
                                               device.logical_block_size);
    return std::make_unique<storage::MemBlockDevice>(device);
}

} // namespace

Testbed::Testbed(const TestbedConfig &config)
    : config_(config), sim_(), host_memory_(config.host_memory_bytes),
      device_(make_device(config)), irq_(sim_),
      controller_(sim_, host_memory_, *device_, irq_, config.controller),
      bar_(controller_, config.bar_page_size, controller_.num_functions())
{
}

Testbed::~Testbed()
{
    if (hv_fs_)
        (void)hv_fs_->unmount();
}

util::Result<std::unique_ptr<Testbed>>
Testbed::create(const TestbedConfig &config)
{
    auto bed = std::unique_ptr<Testbed>(new Testbed(config));
    NESC_RETURN_IF_ERROR(bed->init());
    return bed;
}

util::Status
Testbed::init()
{
    // 0. Optional replicated data path: mirrored backends behind the
    //    controller. Wired before any I/O so even the hypervisor FS
    //    format traffic is replicated.
    if (config_.replication) {
        const TestbedReplicationConfig &repl = *config_.replication;
        if (repl.backends < 2)
            return util::invalid_argument_error(
                "replication needs at least 2 backends");
        replicas_ =
            std::make_unique<repl::ReplicaSet>(sim_, repl.set);
        // Size each backend so its data region (capacity minus the
        // journal reservation at the end) matches the primary device.
        // JournaledBlockstore clamps its ring to >= 3 blocks, so
        // reserve the clamped size — otherwise a tiny journal_blocks
        // config would let the ring eat into the data region and
        // high-pLBA transfers would fail out-of-range.
        storage::MemBlockDeviceConfig media = repl.media;
        media.logical_block_size =
            device_->geometry().logical_block_size;
        const std::uint64_t journal_blocks =
            std::max<std::uint64_t>(repl.backend.journal_blocks, 3);
        media.capacity_bytes =
            device_->geometry().capacity_bytes +
            journal_blocks * media.logical_block_size;
        for (std::uint32_t i = 0; i < repl.backends; ++i) {
            repl_media_.push_back(
                std::make_unique<storage::MemBlockDevice>(media));
            replicas_->add_backend(*repl_media_.back(), repl.backend);
        }
        controller_.attach_replicas(replicas_.get());
    }

    // 0.5. Optional checksum sidecar: formatted over the (enlarged)
    //      media tail and attached before any I/O, so even the
    //      hypervisor FS format traffic is checksummed. The attach
    //      clamps the PF-visible capacity back to the data region.
    if (config_.integrity) {
        const std::uint32_t block_size =
            device_->geometry().logical_block_size;
        const std::uint64_t data_blocks =
            (config_.flash ? config_.flash->capacity_bytes
                           : config_.device.capacity_bytes) /
            block_size;
        NESC_ASSIGN_OR_RETURN(
            integrity_,
            storage::IntegrityMap::format(*device_, data_blocks));
        controller_.attach_integrity(integrity_.get());
    }

    // 1. PF driver: data path + fault service (no FS yet).
    pf_ = std::make_unique<drv::PfDriver>(sim_, host_memory_, bar_, irq_,
                                          config_.pf);
    NESC_RETURN_IF_ERROR(pf_->init());
    if (config_.integrity && config_.integrity->reread_limit != 1) {
        NESC_RETURN_IF_ERROR(pf_->set_integrity_reread_limit(
            config_.integrity->reread_limit));
    }

    // 2. Hypervisor filesystem over the PF data path, through the
    //    hypervisor's own OS block stack (Fig. 1's lower half).
    NESC_ASSIGN_OR_RETURN(std::uint64_t pf_blocks,
                          pf_->pf_data().device_size_blocks());
    pf_io_ = std::make_unique<drv::FunctionBlockIo>(pf_->pf_data(),
                                                    pf_blocks);
    hv_fs_stack_ = std::make_unique<blk::OsBlockStack>(
        sim_, *pf_io_, "hv-fs", config_.hv_fs_stack);
    NESC_ASSIGN_OR_RETURN(hv_fs_,
                          fs::NestFs::format(*hv_fs_stack_, config_.hv_fs));
    pf_->attach_filesystem(*hv_fs_);

    // 3. The "Host" baseline stack: direct PF access, O_DIRECT.
    host_raw_stack_ = std::make_unique<blk::OsBlockStack>(
        sim_, *pf_io_, "host-raw", config_.host_raw_stack);
    return util::Status::ok();
}

util::Result<blk::BlockIo *>
Testbed::hv_raw_backing()
{
    if (!hv_raw_backing_) {
        blk::OsStackConfig cfg = config_.host_raw_stack;
        cfg.direct_io = true;
        hv_raw_backing_ = std::make_unique<blk::OsBlockStack>(
            sim_, *pf_io_, "hv-raw-backing", cfg);
    }
    return hv_raw_backing_.get();
}

util::Result<fs::InodeId>
Testbed::create_backing_file(const std::string &path,
                             std::uint64_t size_blocks, bool preallocate)
{
    const std::size_t slash = path.rfind('/');
    if (slash != std::string::npos && slash > 0) {
        NESC_RETURN_IF_ERROR(
            hv_fs_->mkdir_p(path.substr(0, slash), 0755).status());
    }
    NESC_ASSIGN_OR_RETURN(fs::InodeId ino, hv_fs_->create(path, 0644));
    NESC_RETURN_IF_ERROR(
        hv_fs_->truncate(ino, size_blocks * fs::kFsBlockSize));
    if (preallocate) {
        NESC_RETURN_IF_ERROR(hv_fs_->allocate_range(ino, 0, size_blocks));
    }
    return ino;
}

util::Result<std::unique_ptr<GuestVm>>
Testbed::create_nesc_guest(const std::string &image_path,
                           std::uint64_t size_blocks, bool preallocate)
{
    // Backing file (create or reuse), VF, guest driver, guest VM.
    fs::InodeId ino;
    auto resolved = hv_fs_->resolve(image_path);
    if (resolved.is_ok()) {
        ino = resolved.value();
    } else {
        NESC_ASSIGN_OR_RETURN(
            ino, create_backing_file(image_path, size_blocks, preallocate));
    }
    NESC_ASSIGN_OR_RETURN(pcie::FunctionId fn,
                          pf_->create_vf(ino, size_blocks));
    // A multi-queue guest driver needs the device-side quota raised
    // before it admin-creates its extra pairs (reset quota is 1).
    if (config_.vf_driver.queue_pairs > 1) {
        NESC_RETURN_IF_ERROR(
            pf_->set_qp_quota(fn, config_.vf_driver.queue_pairs));
    }

    auto driver = std::make_shared<drv::FunctionDriver>(
        sim_, host_memory_, bar_, irq_, fn, config_.vf_driver);
    NESC_RETURN_IF_ERROR(driver->init());
    auto disk =
        std::make_unique<drv::FunctionBlockIo>(*driver, size_blocks);
    auto vm = std::make_unique<GuestVm>(sim_, std::move(disk),
                                        "nesc-vm", config_.guest);
    vm->hold(driver);
    guest_vfs_[vm.get()] = fn;
    return vm;
}

util::Result<std::unique_ptr<GuestVm>>
Testbed::create_virtio_guest_raw()
{
    NESC_ASSIGN_OR_RETURN(blk::BlockIo * backing, hv_raw_backing());
    auto disk =
        std::make_unique<VirtioDisk>(sim_, *backing, config_.costs);
    return std::make_unique<GuestVm>(sim_, std::move(disk), "virtio-vm",
                                     config_.guest);
}

util::Result<std::unique_ptr<GuestVm>>
Testbed::create_emulated_guest_raw()
{
    NESC_ASSIGN_OR_RETURN(blk::BlockIo * backing, hv_raw_backing());
    auto disk =
        std::make_unique<EmulatedDisk>(sim_, *backing, config_.costs);
    return std::make_unique<GuestVm>(sim_, std::move(disk), "emulated-vm",
                                     config_.guest);
}

util::Result<std::unique_ptr<GuestVm>>
Testbed::create_virtio_guest_file(const std::string &image_path,
                                  std::uint64_t size_blocks,
                                  bool preallocate)
{
    NESC_ASSIGN_OR_RETURN(
        fs::InodeId ino,
        create_backing_file(image_path, size_blocks, preallocate));
    auto file_io = std::make_shared<FileBlockIo>(sim_, *hv_fs_, ino,
                                                 size_blocks,
                                                 config_.costs);
    auto disk =
        std::make_unique<VirtioDisk>(sim_, *file_io, config_.costs);
    auto vm = std::make_unique<GuestVm>(sim_, std::move(disk),
                                        "virtio-file-vm", config_.guest);
    vm->hold(file_io);
    return vm;
}

util::Result<std::unique_ptr<GuestVm>>
Testbed::create_emulated_guest_file(const std::string &image_path,
                                    std::uint64_t size_blocks,
                                    bool preallocate)
{
    NESC_ASSIGN_OR_RETURN(
        fs::InodeId ino,
        create_backing_file(image_path, size_blocks, preallocate));
    auto file_io = std::make_shared<FileBlockIo>(sim_, *hv_fs_, ino,
                                                 size_blocks,
                                                 config_.costs);
    auto disk =
        std::make_unique<EmulatedDisk>(sim_, *file_io, config_.costs);
    auto vm = std::make_unique<GuestVm>(sim_, std::move(disk),
                                        "emulated-file-vm", config_.guest);
    vm->hold(file_io);
    return vm;
}

util::Result<pcie::FunctionId>
Testbed::guest_vf(const GuestVm &vm) const
{
    auto it = guest_vfs_.find(&vm);
    if (it == guest_vfs_.end())
        return util::not_found_error("VM has no NeSC VF");
    return it->second;
}

} // namespace nesc::virt
