#include "pf_driver.h"

#include "fs/extent_map.h"
#include "util/log.h"
#include "util/units.h"

#undef NESC_LOG_COMPONENT
#define NESC_LOG_COMPONENT "pf_driver"

namespace nesc::drv {

PfDriver::PfDriver(sim::Simulator &simulator, pcie::HostMemory &host_memory,
                   pcie::BarPageRouter &bar, pcie::InterruptController &irq,
                   const PfDriverConfig &config)
    : simulator_(simulator), host_memory_(host_memory), bar_(bar),
      irq_(irq), config_(config)
{
}

PfDriver::~PfDriver()
{
    irq_.clear_handler(ctrl::kFaultVector);
}

util::Status
PfDriver::init()
{
    pf_data_ = std::make_unique<FunctionDriver>(
        simulator_, host_memory_, bar_, irq_, pcie::kPhysicalFunctionId,
        config_.function);
    NESC_RETURN_IF_ERROR(pf_data_->init());
    irq_.set_handler(ctrl::kFaultVector, [this]() { handle_fault_irq(); });
    return util::Status::ok();
}

util::Status
PfDriver::reg_write(pcie::FunctionId fn, std::uint64_t offset,
                    std::uint64_t value)
{
    simulator_.advance(config_.function.mmio_write_cost);
    return bar_.write(bar_.function_base(fn) + offset, value, 8);
}

util::Result<std::uint64_t>
PfDriver::reg_read(pcie::FunctionId fn, std::uint64_t offset)
{
    simulator_.advance(config_.function.mmio_read_cost);
    return bar_.read(bar_.function_base(fn) + offset, 8);
}

util::Status
PfDriver::mgmt_command(ctrl::MgmtCommand command,
                       std::initializer_list<Staged> staged,
                       const char *what, util::ErrorCode rejected)
{
    for (const Staged &reg : staged)
        NESC_RETURN_IF_ERROR(
            reg_write(pcie::kPhysicalFunctionId, reg.offset, reg.value));
    NESC_RETURN_IF_ERROR(reg_write(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kMgmtCommand,
                                   static_cast<std::uint64_t>(command)));
    NESC_ASSIGN_OR_RETURN(
        const std::uint64_t status,
        reg_read(pcie::kPhysicalFunctionId, ctrl::reg::kMgmtStatus));
    if (status != static_cast<std::uint64_t>(ctrl::MgmtStatus::kOk))
        return util::Status(rejected,
                            std::string("device rejected ") + what);
    return util::Status::ok();
}

util::Result<std::vector<std::uint64_t>>
PfDriver::select_read(std::uint64_t select_reg, std::uint64_t select,
                      std::initializer_list<std::uint64_t> regs,
                      const char *rejected)
{
    NESC_RETURN_IF_ERROR(
        reg_write(pcie::kPhysicalFunctionId, select_reg, select));
    std::vector<std::uint64_t> values;
    values.reserve(regs.size());
    for (std::uint64_t offset : regs) {
        NESC_ASSIGN_OR_RETURN(const std::uint64_t value,
                              reg_read(pcie::kPhysicalFunctionId, offset));
        if (values.empty() && rejected != nullptr &&
            value == ~std::uint64_t{0})
            return util::not_found_error(rejected);
        values.push_back(value);
    }
    return values;
}

util::Result<std::vector<TelemetryEntry>>
PfDriver::dump_telemetry(pcie::FunctionId fn)
{
    NESC_ASSIGN_OR_RETURN(const std::uint64_t count,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kTelemetryCount));
    std::vector<TelemetryEntry> entries;
    entries.reserve(count);
    for (std::uint64_t index = 0; index < count; ++index) {
        NESC_ASSIGN_OR_RETURN(
            const auto regs,
            select_read(ctrl::reg::kTelemetrySelect,
                        (index << 16) |
                            (static_cast<std::uint64_t>(fn) & 0xffff),
                        {ctrl::reg::kTelemetryValue,
                         ctrl::reg::kTelemetryName0,
                         ctrl::reg::kTelemetryName1,
                         ctrl::reg::kTelemetryName2},
                        "telemetry selection rejected by device"));
        TelemetryEntry entry;
        entry.value = regs[0];
        for (std::size_t chunk = 1; chunk < regs.size(); ++chunk) {
            const std::uint64_t packed = regs[chunk];
            for (unsigned shift = 0; shift < 64; shift += 8) {
                const char ch =
                    static_cast<char>((packed >> shift) & 0xff);
                if (ch == '\0')
                    break;
                entry.name.push_back(ch);
            }
        }
        entries.push_back(std::move(entry));
    }
    return entries;
}

util::Result<pcie::FunctionId>
PfDriver::create_vf(fs::InodeId backing_file, std::uint64_t size_blocks)
{
    // Translate the filesystem's per-file mapping into the device ABI
    // (paper §IV.C: "this stage typically consists of translating the
    // filesystem's own per-file extent tree to the NeSC tree format").
    if (fs_ == nullptr)
        return util::failed_precondition_error("no filesystem attached");
    NESC_ASSIGN_OR_RETURN(auto extents, fs_->fiemap(backing_file));
    NESC_ASSIGN_OR_RETURN(
        auto image,
        extent::ExtentTreeImage::build(host_memory_, extents, config_.tree));

    const pcie::FunctionId fn = next_vf_++;
    if (util::Status created = mgmt_command(
            ctrl::MgmtCommand::kCreateVf,
            {{ctrl::reg::kMgmtVfId, fn},
             {ctrl::reg::kMgmtExtentRoot, image.root()},
             {ctrl::reg::kMgmtDeviceSize, size_blocks}},
            "VF create", util::ErrorCode::kResourceExhausted);
        !created.is_ok()) {
        (void)image.destroy();
        return created;
    }
    vfs_[fn] = VfInfo{fn, backing_file, size_blocks};
    trees_.emplace(fn, std::move(image));
    tree_owner_[fn] = fn;
    return fn;
}

util::Result<pcie::FunctionId>
PfDriver::create_vf_shared(pcie::FunctionId owner_fn,
                           std::uint64_t size_blocks)
{
    auto owner_it = vfs_.find(owner_fn);
    if (owner_it == vfs_.end())
        return util::not_found_error("no such VF to share with");
    const pcie::FunctionId root_owner = tree_owner_.at(owner_fn);
    const extent::ExtentTreeImage &tree = trees_.at(root_owner);

    const pcie::FunctionId fn = next_vf_++;
    NESC_RETURN_IF_ERROR(mgmt_command(
        ctrl::MgmtCommand::kCreateVf,
        {{ctrl::reg::kMgmtVfId, fn},
         {ctrl::reg::kMgmtExtentRoot, tree.root()},
         {ctrl::reg::kMgmtDeviceSize, size_blocks}},
        "VF create", util::ErrorCode::kResourceExhausted));
    vfs_[fn] = VfInfo{fn, owner_it->second.backing_file, size_blocks};
    tree_owner_[fn] = root_owner;
    return fn;
}

util::Status
PfDriver::set_qos_weight(pcie::FunctionId fn, std::uint32_t weight)
{
    if (!vfs_.contains(fn))
        return util::not_found_error("no such VF");
    return mgmt_command(ctrl::MgmtCommand::kSetQosWeight,
                        {{ctrl::reg::kMgmtVfId, fn},
                         {ctrl::reg::kMgmtQosWeight, weight}},
                        "QoS update");
}

util::Status
PfDriver::set_qp_quota(pcie::FunctionId fn, std::uint32_t quota)
{
    if (!vfs_.contains(fn))
        return util::not_found_error("no such VF");
    return mgmt_command(ctrl::MgmtCommand::kSetQpQuota,
                        {{ctrl::reg::kMgmtVfId, fn},
                         {ctrl::reg::kMgmtQpQuota, quota}},
                        "queue-pair quota update");
}

util::Status
PfDriver::set_rate_limit(pcie::FunctionId fn, std::uint64_t bytes_per_sec,
                         std::uint64_t burst_bytes)
{
    if (!vfs_.contains(fn))
        return util::not_found_error("no such VF");
    return mgmt_command(ctrl::MgmtCommand::kSetRateLimit,
                        {{ctrl::reg::kMgmtVfId, fn},
                         {ctrl::reg::kMgmtRateBytesPerSec, bytes_per_sec},
                         {ctrl::reg::kMgmtRateBurstBytes, burst_bytes}},
                        "rate-limit update");
}

util::Status
PfDriver::set_arb_mode(ctrl::ArbMode mode)
{
    return reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kArbMode,
                     static_cast<std::uint64_t>(mode));
}

util::Status
PfDriver::set_arb_quantum(std::uint32_t quantum)
{
    return reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kArbQuantum,
                     quantum);
}

util::Status
PfDriver::delete_vf(pcie::FunctionId fn)
{
    auto it = vfs_.find(fn);
    if (it == vfs_.end())
        return util::not_found_error("no such VF");
    // A tree owner cannot go away while other VFs still walk its tree.
    for (const auto &[other, owner] : tree_owner_) {
        if (other != fn && owner == fn) {
            return util::failed_precondition_error(
                "VF tree is shared; delete sharers first");
        }
    }
    NESC_RETURN_IF_ERROR(mgmt_command(ctrl::MgmtCommand::kDeleteVf,
                                      {{ctrl::reg::kMgmtVfId, fn}},
                                      "VF delete"));
    auto tree_it = trees_.find(fn);
    if (tree_it != trees_.end()) {
        NESC_RETURN_IF_ERROR(tree_it->second.destroy());
        trees_.erase(tree_it);
    }
    vfs_.erase(it);
    tree_owner_.erase(fn);
    allocation_denied_.erase(fn);
    return util::Status::ok();
}

util::Status
PfDriver::flush_btlb()
{
    NESC_RETURN_IF_ERROR(reg_write(
        pcie::kPhysicalFunctionId, ctrl::reg::kMgmtCommand,
        static_cast<std::uint64_t>(ctrl::MgmtCommand::kFlushBtlb)));
    return util::Status::ok();
}

bool
PfDriver::repl_attached()
{
    auto quorum =
        reg_read(pcie::kPhysicalFunctionId, ctrl::reg::kReplQuorum);
    return quorum.is_ok() && quorum.value() != ~std::uint64_t{0};
}

util::Status
PfDriver::set_repl_quorum(std::uint32_t quorum)
{
    if (!repl_attached())
        return util::failed_precondition_error("no replica set attached");
    return reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kReplQuorum,
                     quorum);
}

util::Status
PfDriver::set_repl_read_timeout(sim::Duration timeout_ns)
{
    if (!repl_attached())
        return util::failed_precondition_error("no replica set attached");
    return reg_write(pcie::kPhysicalFunctionId,
                     ctrl::reg::kReplReadTimeoutNs,
                     static_cast<std::uint64_t>(timeout_ns));
}

util::Result<ReplBackendStatus>
PfDriver::repl_backend_status(std::uint32_t backend)
{
    NESC_ASSIGN_OR_RETURN(
        const auto regs,
        select_read(ctrl::reg::kReplBackendSelect, backend,
                    {ctrl::reg::kReplBackendState,
                     ctrl::reg::kReplBackendDirty,
                     ctrl::reg::kReplBackendTimeouts,
                     ctrl::reg::kReplBackendErrors,
                     ctrl::reg::kReplResyncDone},
                    "replication backend selection rejected by device"));
    return ReplBackendStatus{regs[0], regs[1], regs[2], regs[3], regs[4]};
}

util::Result<std::uint64_t>
PfDriver::repl_failovers()
{
    NESC_ASSIGN_OR_RETURN(const std::uint64_t failovers,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kReplFailovers));
    if (failovers == ~std::uint64_t{0})
        return util::not_found_error("no replica set attached");
    return failovers;
}

util::Status
PfDriver::repl_demote(std::uint32_t backend)
{
    return mgmt_command(ctrl::MgmtCommand::kReplDemote,
                        {{ctrl::reg::kReplBackendSelect, backend}}, "demote");
}

util::Status
PfDriver::repl_resync(std::uint32_t backend)
{
    return mgmt_command(ctrl::MgmtCommand::kReplResync,
                        {{ctrl::reg::kReplBackendSelect, backend}}, "resync");
}

util::Result<std::uint64_t>
PfDriver::repl_wait_resync(std::uint32_t backend,
                           sim::Duration poll_interval,
                           std::uint64_t max_steps)
{
    for (std::uint64_t polls = 0; polls < max_steps; ++polls) {
        NESC_ASSIGN_OR_RETURN(const ReplBackendStatus status,
                              repl_backend_status(backend));
        if (status.state == 0)
            return polls;
        simulator_.advance(poll_interval);
    }
    return util::unavailable_error("replica resync did not converge");
}

bool
PfDriver::integrity_attached()
{
    auto ctl =
        reg_read(pcie::kPhysicalFunctionId, ctrl::reg::kIntegrityCtrl);
    return ctl.is_ok() && ctl.value() != ~std::uint64_t{0};
}

util::Status
PfDriver::set_integrity_reread_limit(std::uint32_t limit)
{
    if (!integrity_attached())
        return util::failed_precondition_error("no checksum sidecar attached");
    return reg_write(pcie::kPhysicalFunctionId,
                     ctrl::reg::kIntegrityRereadLimit, limit);
}

util::Result<std::uint64_t>
PfDriver::integrity_mismatches()
{
    return reg_read(pcie::kPhysicalFunctionId,
                    ctrl::reg::kIntegrityMismatches);
}

util::Result<std::uint64_t>
PfDriver::integrity_repairs()
{
    return reg_read(pcie::kPhysicalFunctionId, ctrl::reg::kIntegrityRepairs);
}

util::Status
PfDriver::set_scrub_rate(std::uint64_t batch_blocks,
                         sim::Duration interval_ns)
{
    if (!integrity_attached())
        return util::failed_precondition_error("no checksum sidecar attached");
    NESC_RETURN_IF_ERROR(reg_write(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kScrubBatch, batch_blocks));
    return reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kScrubIntervalNs,
                     static_cast<std::uint64_t>(interval_ns));
}

util::Status
PfDriver::scrub_start()
{
    return mgmt_command(ctrl::MgmtCommand::kScrubStart, {}, "scrub start");
}

util::Result<bool>
PfDriver::scrub_running()
{
    NESC_ASSIGN_OR_RETURN(
        std::uint64_t status,
        reg_read(pcie::kPhysicalFunctionId, ctrl::reg::kScrubStatus));
    if (status == ~std::uint64_t{0})
        return util::not_found_error("no checksum sidecar attached");
    return status != 0;
}

util::Result<std::uint64_t>
PfDriver::scrub_errors()
{
    return reg_read(pcie::kPhysicalFunctionId, ctrl::reg::kScrubErrors);
}

util::Result<std::uint64_t>
PfDriver::scrub_wait(sim::Duration poll_interval, std::uint64_t max_steps)
{
    for (std::uint64_t polls = 0; polls < max_steps; ++polls) {
        NESC_ASSIGN_OR_RETURN(const bool running, scrub_running());
        if (!running)
            return polls;
        simulator_.advance(poll_interval);
    }
    return util::unavailable_error("scrub pass did not complete");
}

util::Status
PfDriver::set_obs_window(sim::Duration window_ns)
{
    return reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kObsWindowNs,
                     static_cast<std::uint64_t>(window_ns));
}

util::Status
PfDriver::set_slo(pcie::FunctionId fn, std::uint64_t max_p99_ns,
                  std::uint64_t max_error_ppm)
{
    if (!vfs_.contains(fn))
        return util::not_found_error("no such VF");
    return mgmt_command(ctrl::MgmtCommand::kSetSlo,
                        {{ctrl::reg::kMgmtVfId, fn},
                         {ctrl::reg::kSloMaxP99Ns, max_p99_ns},
                         {ctrl::reg::kSloMaxErrorPpm, max_error_ppm}},
                        "SLO update");
}

util::Result<SloWindow>
PfDriver::slo_window(pcie::FunctionId fn, std::uint32_t stage)
{
    NESC_ASSIGN_OR_RETURN(
        const auto regs,
        select_read(ctrl::reg::kSloSelect,
                    (static_cast<std::uint64_t>(stage) << 16) |
                        (static_cast<std::uint64_t>(fn) & 0xffff),
                    {ctrl::reg::kSloP50, ctrl::reg::kSloP99,
                     ctrl::reg::kSloP999, ctrl::reg::kSloWindowOps,
                     ctrl::reg::kSloWindowErrors, ctrl::reg::kSloWindowStart},
                    "SLO selection rejected by device (accounting off?)"));
    return SloWindow{regs[0], regs[1], regs[2], regs[3], regs[4], regs[5]};
}

util::Result<std::vector<SloBreachEntry>>
PfDriver::slo_breaches()
{
    NESC_ASSIGN_OR_RETURN(const std::uint64_t count,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kSloBreachCount));
    std::vector<SloBreachEntry> entries;
    entries.reserve(count);
    for (std::uint64_t index = 0; index < count; ++index) {
        NESC_ASSIGN_OR_RETURN(
            const auto regs,
            select_read(ctrl::reg::kSloBreachSelect, index,
                        {ctrl::reg::kSloBreachInfo,
                         ctrl::reg::kSloBreachObserved,
                         ctrl::reg::kSloBreachThreshold,
                         ctrl::reg::kSloBreachWindow},
                        "breach selection rejected by device"));
        entries.push_back(SloBreachEntry{
            regs[1], regs[2], regs[3],
            static_cast<std::uint16_t>(regs[0] & 0xffff),
            static_cast<std::uint8_t>((regs[0] >> 16) & 0xff)});
    }
    return entries;
}

util::Status
PfDriver::clear_slo_breaches()
{
    return mgmt_command(ctrl::MgmtCommand::kSloBreachClear, {}, "breach clear");
}

util::Status
PfDriver::set_flight_recorder(bool enabled, std::uint64_t depth)
{
    if (depth != 0)
        NESC_RETURN_IF_ERROR(reg_write(pcie::kPhysicalFunctionId,
                                       ctrl::reg::kFlightDepth, depth));
    return reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kFlightCtrl,
                     enabled ? 1 : 0);
}

util::Result<std::uint64_t>
PfDriver::postmortem_count()
{
    return reg_read(pcie::kPhysicalFunctionId,
                    ctrl::reg::kPostmortemCount);
}

util::Result<std::string>
PfDriver::dump_postmortem()
{
    static constexpr const char *kReasons[] = {
        "fault", "quarantine", "checksum_error", "replica_demotion"};
    static constexpr const char *kEventTypes[] = {"doorbell", "fetch",
                                                  "complete", "fault"};
    NESC_ASSIGN_OR_RETURN(const std::uint64_t count, postmortem_count());
    std::string out = "{\"postmortems\": [";
    char buf[192];
    for (std::uint64_t pm = 0; pm < count; ++pm) {
        NESC_ASSIGN_OR_RETURN(
            const auto head,
            select_read(ctrl::reg::kPostmortemSelect, pm,
                        {ctrl::reg::kPostmortemInfo,
                         ctrl::reg::kPostmortemTime},
                        "postmortem selection rejected by device"));
        const std::uint64_t info = head[0];
        const std::uint64_t at = head[1];
        const std::uint64_t fn = info & 0xffff;
        const std::uint64_t reason = (info >> 16) & 0xff;
        const std::uint64_t detail = (info >> 24) & 0xff;
        const std::uint64_t events = info >> 32;
        std::snprintf(buf, sizeof buf,
                      "%s{\"fn\": %llu, \"reason\": \"%s\", "
                      "\"at\": %llu, \"detail\": %llu, \"events\": [",
                      pm == 0 ? "" : ", ",
                      static_cast<unsigned long long>(fn),
                      reason < 4 ? kReasons[reason] : "unknown",
                      static_cast<unsigned long long>(at),
                      static_cast<unsigned long long>(detail));
        out += buf;
        for (std::uint64_t ev = 0; ev < events; ++ev) {
            NESC_ASSIGN_OR_RETURN(
                const auto event,
                select_read(ctrl::reg::kPostmortemSelect, pm | (ev << 16),
                            {ctrl::reg::kPostmortemEventTime,
                             ctrl::reg::kPostmortemEventTag,
                             ctrl::reg::kPostmortemEventVlba,
                             ctrl::reg::kPostmortemEventMeta},
                            nullptr));
            const std::uint64_t ev_at = event[0];
            const std::uint64_t tag = event[1];
            const std::uint64_t vlba = event[2];
            const std::uint64_t meta = event[3];
            const std::uint64_t type = meta & 0xff;
            std::snprintf(buf, sizeof buf,
                          "%s{\"type\": \"%s\", \"at\": %llu, "
                          "\"tag\": %llu, \"vlba\": %llu, \"aux\": %llu}",
                          ev == 0 ? "" : ", ",
                          type < 4 ? kEventTypes[type] : "unknown",
                          static_cast<unsigned long long>(ev_at),
                          static_cast<unsigned long long>(tag),
                          static_cast<unsigned long long>(vlba),
                          static_cast<unsigned long long>(meta >> 8));
            out += buf;
        }
        out += "]}";
    }
    out += "]}";
    return out;
}

util::Status
PfDriver::clear_postmortems()
{
    return mgmt_command(ctrl::MgmtCommand::kPostmortemClear, {},
                        "postmortem clear");
}

util::Status
PfDriver::set_sampler_interval(sim::Duration interval_ns)
{
    return reg_write(pcie::kPhysicalFunctionId,
                     ctrl::reg::kSamplerIntervalNs,
                     static_cast<std::uint64_t>(interval_ns));
}

util::Result<std::size_t>
PfDriver::prune_vf_tree(pcie::FunctionId fn, std::uint64_t first_vblock,
                        std::uint64_t nblocks)
{
    auto it = trees_.find(fn);
    if (it == trees_.end())
        return util::not_found_error("no such VF");
    return it->second.prune_range(first_vblock, nblocks);
}

void
PfDriver::set_allocation_denied(pcie::FunctionId fn, bool denied)
{
    allocation_denied_[fn] = denied;
}

void
PfDriver::handle_fault_irq()
{
    // Every register access of the service advances simulated time, so
    // another VF's fault IRQ can arrive mid-service. Servicing it
    // re-entrantly would interleave two allocations in the host
    // filesystem; instead the nested IRQ asks the running service for
    // one more scan, which picks up every VF still stalled.
    if (fault_service_active_) {
        fault_rescan_ = true;
        return;
    }
    fault_service_active_ = true;
    do {
        fault_rescan_ = false;
        simulator_.advance(config_.fault_service_cost);
        // Identify the faulting VF(s). Real hardware would provide a
        // fault status register; the scan over created VFs reads each
        // MissSize.
        for (auto &[fn, info] : vfs_) {
            auto miss_size = reg_read(fn, ctrl::reg::kMissSize);
            if (!miss_size.is_ok() || miss_size.value() == 0)
                continue;
            util::Status serviced = service_fault(fn);
            if (!serviced.is_ok()) {
                NESC_LOG_WARN("fault service for VF %u failed: %s", fn,
                              serviced.to_string().c_str());
            }
        }
    } while (fault_rescan_);
    fault_service_active_ = false;
}

util::Status
PfDriver::service_fault(pcie::FunctionId fn)
{
    VfInfo &info = vfs_.at(fn);
    NESC_ASSIGN_OR_RETURN(std::uint64_t miss_addr,
                          reg_read(fn, ctrl::reg::kMissAddress));
    NESC_ASSIGN_OR_RETURN(std::uint64_t miss_size,
                          reg_read(fn, ctrl::reg::kMissSize));
    ++faults_serviced_;

    const std::uint64_t first_vblock = miss_addr / ctrl::kDeviceBlockSize;
    std::uint64_t nblocks =
        util::ceil_div(miss_size, ctrl::kDeviceBlockSize);

    NESC_ASSIGN_OR_RETURN(std::uint64_t fault_kind,
                          reg_read(fn, ctrl::reg::kFaultKind));
    if (static_cast<ctrl::FaultKind>(fault_kind) ==
        ctrl::FaultKind::kTreeCorrupt) {
        // The device hit garbage walking this VF's tree. No
        // allocation is missing; either hand the VF a clean tree and
        // rewalk, or reset the function and let its driver resubmit.
        ++tree_corrupt_serviced_;
        if (config_.media_error_policy == MediaErrorPolicy::kReset)
            return reg_write(fn, ctrl::reg::kFnReset, 1);
        NESC_RETURN_IF_ERROR(rebuild_tree(fn));
        return reg_write(fn, ctrl::reg::kRewalkTree, 1);
    }

    // Figure 5b's "cannot allocate" leg: tell the device to fail the
    // stalled writes (reads parked behind them resume).
    auto fail_miss = [&]() -> util::Status {
        NESC_RETURN_IF_ERROR(
            reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kMgmtVfId, fn));
        return reg_write(
            pcie::kPhysicalFunctionId, ctrl::reg::kMgmtCommand,
            static_cast<std::uint64_t>(ctrl::MgmtCommand::kFailMiss));
    };
    if (allocation_denied_[fn])
        return fail_miss(); // quota exhausted

    // Whether this is a write miss (unallocated) or a pruned-subtree
    // fault, the same service works: ensure the range is allocated in
    // the filesystem, then regenerate the device tree from FIEMAP.
    if (fs_ == nullptr)
        return util::failed_precondition_error("no filesystem attached");
    auto already = fs_->fiemap(info.backing_file);
    bool was_allocated = false;
    if (already.is_ok()) {
        auto ext = already.value();
        was_allocated =
            fs::map_lookup(ext, first_vblock).has_value();
    }
    if (was_allocated) {
        ++prune_faults_serviced_;
    } else {
        ++write_misses_serviced_;
        if (config_.allocation_batch_blocks > nblocks)
            nblocks = config_.allocation_batch_blocks;
        util::Status allocated =
            fs_->allocate_range(info.backing_file, first_vblock, nblocks);
        if (allocated.code() == util::ErrorCode::kResourceExhausted)
            return fail_miss(); // the host volume is full
        NESC_RETURN_IF_ERROR(allocated);
    }
    NESC_RETURN_IF_ERROR(rebuild_tree(fn));
    NESC_RETURN_IF_ERROR(reg_write(fn, ctrl::reg::kRewalkTree, 1));
    return util::Status::ok();
}

util::Status
PfDriver::rebuild_tree(pcie::FunctionId fn)
{
    // Shared trees rebuild once, at the owner, and every sharer's
    // root register is repointed (preserving tree consistency across
    // the sharing group, paper §IV.B).
    const pcie::FunctionId owner = tree_owner_.at(fn);
    VfInfo &info = vfs_.at(owner);
    if (fs_ == nullptr)
        return util::failed_precondition_error("no filesystem attached");
    NESC_ASSIGN_OR_RETURN(auto extents, fs_->fiemap(info.backing_file));
    NESC_ASSIGN_OR_RETURN(
        auto image,
        extent::ExtentTreeImage::build(host_memory_, extents, config_.tree));
    // Repoint every sharer through the PF mgmt block: the per-function
    // ExtentTreeRoot register is PF-page-only, and the mgmt command
    // also flushes the member's stale BTLB entries.
    for (const auto &[member, member_owner] : tree_owner_) {
        if (member_owner != owner)
            continue;
        NESC_RETURN_IF_ERROR(mgmt_command(
            ctrl::MgmtCommand::kSetExtentRoot,
            {{ctrl::reg::kMgmtVfId, member},
             {ctrl::reg::kMgmtExtentRoot, image.root()}},
            "extent-root update", util::ErrorCode::kInternal));
    }
    auto it = trees_.find(owner);
    if (it != trees_.end()) {
        NESC_RETURN_IF_ERROR(it->second.destroy());
        it->second = std::move(image);
    } else {
        trees_.emplace(owner, std::move(image));
    }
    return util::Status::ok();
}

} // namespace nesc::drv
