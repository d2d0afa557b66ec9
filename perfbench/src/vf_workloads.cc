/**
 * @file
 * The two VF-plane workloads: closed-loop 4 KiB requests submitted
 * straight through drv::FunctionDriver::submit (no guest stack, no
 * virtio/emulation, no host nestfs on the data path).
 *
 *  - vf256_read: 256 VFs on preallocated images; one weight-16 tenant
 *    with 4 queue pairs at QD32 against 255 weight-1 tenants at QD4,
 *    DWRR arbitration, random reads (the abl_vf_scale shape).
 *  - lazy_write_durable: 8 VFs at QD4, one on a sparse image and seven
 *    on preallocated ones, 50/50 random writes and reads, 3-way
 *    replication (quorum 2), the checksum sidecar, and the SLO window
 *    plus flight recorder armed. Every read is checked against a
 *    reference copy kept here, and the host nestfs is fsck'ed after the
 *    run. One repetition runs several independent testbeds with
 *    seed-derived inputs and pools them: one testbed's latency tail
 *    swings by 2x from seed to seed.
 *  - lazy_write_contended: lazy_write_durable with all 8 images sparse.
 *    Not a benchmark workload: it reproduces a known defect of the
 *    write-miss fault service (two VFs faulting at once corrupt the
 *    host nestfs and acknowledged data) and reports correct=false
 *    until that is fixed.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "drivers/function_driver.h"
#include "layer_trace.h"
#include "stats.h"
#include "util/log.h"
#include "util/rng.h"
#include "virt/testbed.h"
#include "workloads.h"

namespace perfbench {

using namespace nesc;

namespace {

/** One 4 KiB request: four 1 KiB device blocks. */
constexpr std::uint32_t kChunkBlocks = 4;
constexpr std::uint64_t kChunkBytes = kChunkBlocks * ctrl::kDeviceBlockSize;

struct VfShape {
    /** Independent testbeds per repetition, pooled. */
    std::uint32_t instances = 1;
    std::uint32_t vfs = 0;
    std::uint64_t image_blocks = 0;
    /** Device capacity beyond the images (hypervisor-FS metadata). */
    std::uint64_t headroom_bytes = 128ULL << 20;
    /** VFs [0, sparse_vfs) get sparse images; the rest preallocated. */
    std::uint32_t sparse_vfs = 0;
    /** Tenant 0's weight / queue pairs / depth; the rest get 1 / 1 / qd. */
    std::uint32_t heavy_weight = 1;
    std::uint32_t heavy_queue_pairs = 1;
    std::uint32_t heavy_qd = 4;
    std::uint32_t tenant_qd = 4;
    bool dwrr = false;
    double write_ratio = 0.0;
    /** Replication + integrity sidecar + SLO window + flight recorder. */
    bool durable = false;
    /** Clients come online at seed-drawn times within this window. */
    sim::Duration start_spread = 0;
    /**
     * Mean of a client's exponential think time between a completion
     * and its next request (0 = resubmit from the completion handler).
     */
    double think_mean_ns = 0.0;
    sim::Duration warmup = 0;
    sim::Duration measure = 0;
};

/**
 * Every client stays backlogged, so without think time each request
 * would wait exactly one DWRR round and p50 = p99 regardless of the
 * input; 10 us of think time (0.2% of a ~5.5 ms round) lets request
 * phases differ.
 */
constexpr VfShape kVf256Read = {
    .instances = 1,
    .vfs = 256,
    .image_blocks = 16384,
    .sparse_vfs = 0,
    .heavy_weight = 16,
    .heavy_queue_pairs = 4,
    .heavy_qd = 32,
    .tenant_qd = 4,
    .dwrr = true,
    .write_ratio = 0.0,
    .durable = false,
    .start_spread = 1 * sim::kMs,
    .think_mean_ns = 10'000.0,
    .warmup = 10 * sim::kMs,
    .measure = 400 * sim::kMs,
};

/**
 * One sparse image per testbed: the write-miss fault service is only
 * correct while a single VF faults at a time (see kLazyWriteContended).
 */
constexpr VfShape kLazyWriteDurable = {
    .instances = 32,
    .vfs = 8,
    .image_blocks = 8192,
    .headroom_bytes = 16ULL << 20,
    .sparse_vfs = 1,
    .heavy_weight = 1,
    .heavy_queue_pairs = 1,
    .heavy_qd = 4,
    .tenant_qd = 4,
    .dwrr = false,
    .write_ratio = 0.5,
    .durable = true,
    .start_spread = 100 * sim::kUs,
    .think_mean_ns = 0.0,
    .warmup = 2 * sim::kMs,
    .measure = 100 * sim::kMs,
};

/** The durable workload with every image sparse. */
constexpr VfShape kLazyWriteContended = [] {
    VfShape shape = kLazyWriteDurable;
    shape.sparse_vfs = shape.vfs;
    return shape;
}();

/** SLO programmed on every VF of the durable workload. */
constexpr std::uint64_t kSloP99Ns = 500'000;
constexpr std::uint64_t kSloErrorPpm = 1'000;
constexpr sim::Duration kObsWindowNs = 1 * sim::kMs;

/** Controller counters reported as run-phase deltas. */
constexpr const char *kControllerCounters[] = {
    "btlb_hits",      "btlb_misses",         "node_cache_hits",
    "node_cache_misses", "walk_node_reads",  "rewalks",
    "repl_writes",    "repl_read_failures",  "checksum_mismatches",
    "checksum_rereads", "slo_breaches",
};

/** Payload of version @p version (>= 1) of one tenant's chunk. */
void
fill_pattern(std::uint64_t seed, std::uint32_t tenant, std::uint64_t chunk,
             std::uint32_t version, std::span<std::byte> out)
{
    // chunk < 2^24 and version < 2^24 keep the key fields apart.
    util::Rng rng(seed ^ (std::uint64_t{tenant} << 48) ^ (chunk << 24) ^
                  version);
    for (std::size_t off = 0; off < out.size(); off += 8) {
        const std::uint64_t word = rng.next();
        std::memcpy(out.data() + off, &word, 8);
    }
}

/**
 * Translation structures sized with the VF count (2 BTLB entries and
 * 8 KiB of node-cache SRAM per VF), as abl_vf_scale provisions them.
 */
virt::TestbedConfig
testbed_config(const VfShape &shape)
{
    virt::TestbedConfig config;
    config.host_memory_bytes = 128ULL << 20;
    config.controller.max_vfs = static_cast<std::uint16_t>(shape.vfs);
    config.controller.btlb_entries = 2 * shape.vfs;
    config.controller.node_cache_bytes = 8192ULL * shape.vfs;
    config.device.capacity_bytes =
        shape.vfs * shape.image_blocks * ctrl::kDeviceBlockSize +
        shape.headroom_bytes;
    if (shape.durable) {
        virt::TestbedReplicationConfig replication;
        replication.backends = 3;
        replication.set.quorum = 2;
        config.replication = replication;
        config.integrity = virt::TestbedIntegrityConfig{};
    }
    return config;
}

/** Additive outcome of one testbed instance. */
struct Tally {
    // Host clock (ns).
    std::uint64_t setup_ns = 0;
    std::uint64_t run_ns = 0;
    std::uint64_t provision_ns = 0;
    std::uint64_t create_vf_ns = 0;
    std::uint64_t loop_host_ns = 0;   ///< traced: event loop, exclusive
    std::uint64_t submit_host_ns = 0; ///< traced: inside submit()
    // Simulated clock and counts.
    std::uint64_t events = 0;
    std::uint64_t attempted = 0;
    std::uint64_t submits = 0;
    std::uint64_t completed = 0;
    std::uint64_t not_ok = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t fsck_errors = 0;
    std::uint64_t completed_in_submit = 0;
    /** Completions for a request that was not outstanding. */
    std::uint64_t stray_completions = 0;
    /** Requests whose submit span did not end inside submit..completion. */
    std::uint64_t split_errors = 0;
    /** Per-request split: submit call, then device + completion. */
    std::uint64_t e2e_ns = 0;
    std::uint64_t submit_ns = 0;
    std::uint64_t device_ns = 0;
    std::vector<std::uint64_t> latencies; ///< inside the measure window
    double share_err_max = 0.0;
    StageDelta queue, translate, transfer;
    std::map<std::string, std::uint64_t> counts;
    std::vector<std::string> problems;

    void add(Tally &&other)
    {
        setup_ns += other.setup_ns;
        run_ns += other.run_ns;
        provision_ns += other.provision_ns;
        create_vf_ns += other.create_vf_ns;
        loop_host_ns += other.loop_host_ns;
        submit_host_ns += other.submit_host_ns;
        events += other.events;
        attempted += other.attempted;
        submits += other.submits;
        completed += other.completed;
        not_ok += other.not_ok;
        mismatches += other.mismatches;
        fsck_errors += other.fsck_errors;
        completed_in_submit += other.completed_in_submit;
        stray_completions += other.stray_completions;
        split_errors += other.split_errors;
        e2e_ns += other.e2e_ns;
        submit_ns += other.submit_ns;
        device_ns += other.device_ns;
        latencies.insert(latencies.end(), other.latencies.begin(),
                         other.latencies.end());
        share_err_max = std::max(share_err_max, other.share_err_max);
        queue.add(other.queue);
        translate.add(other.translate);
        transfer.add(other.transfer);
        for (const auto &[name, value] : other.counts)
            counts[name] += value;
        for (std::string &problem : other.problems)
            problems.push_back(std::move(problem));
    }
};

/** Closed-loop VF clients over one testbed; see file comment. */
class VfInstance {
  public:
    VfInstance(const VfShape &shape, std::uint64_t seed, bool traced)
        : shape_(shape), seed_(seed), seeder_(seed), traced_(traced),
          ledger_(traced)
    {
    }

    Tally run();

  private:
    struct Slot {
        sim::Time issued = 0;
        sim::Time submit_returned = 0;
        /** Bumped per request: tells a stale submit return or a second
         * completion of an earlier request from the current one. */
        std::uint64_t generation = 0;
        bool outstanding = false;
        bool in_submit = false;
        bool write = false;
        std::uint64_t chunk = 0;
        std::uint32_t version = 0;
    };
    struct Tenant {
        std::unique_ptr<drv::FunctionDriver> driver;
        std::uint32_t weight = 1;
        pcie::HostAddr buffer = 0;
        util::Rng rng{0};
        std::vector<Slot> slots;
        std::uint64_t completed = 0;
        std::uint64_t measured = 0; ///< completions inside the window
        /** Reference copy: acknowledged version per chunk, 0 = never. */
        std::vector<std::uint32_t> oracle;
        std::vector<bool> busy;
    };

    void setup();
    void issue(std::uint32_t tenant, std::uint32_t slot);
    void complete(std::uint32_t tenant, std::uint32_t slot,
                  std::uint64_t generation, ctrl::CompletionStatus status);
    void check_identities();

    const VfShape &shape_;
    std::uint64_t seed_;
    /** Draws every per-instance input stream, in a fixed order. */
    util::Rng seeder_;
    bool traced_;
    HostLedger ledger_;
    std::unique_ptr<virt::Testbed> bed_;
    std::vector<Tenant> tenants_;
    sim::Time warmup_at_ = 0;
    sim::Time deadline_ = 0;
    Tally tally_;
    std::vector<std::byte> readback_ = std::vector<std::byte>(kChunkBytes);
    std::vector<std::byte> expected_ = std::vector<std::byte>(kChunkBytes);
};

void
VfInstance::setup()
{
    const std::uint64_t start = host_now_ns();
    bed_ = check(virt::Testbed::create(testbed_config(shape_)), "testbed");
    drv::PfDriver &pf = bed_->pf();
    if (shape_.dwrr) {
        check(pf.set_arb_mode(ctrl::ArbMode::kDwrr), "arbitration mode");
        // One 4-block request per weight unit per round.
        check(pf.set_arb_quantum(kChunkBlocks), "arbitration quantum");
    }
    if (shape_.durable) {
        check(pf.set_obs_window(kObsWindowNs), "obs window");
        check(pf.set_flight_recorder(true), "flight recorder");
    }

    const std::uint64_t chunks = shape_.image_blocks / kChunkBlocks;
    tenants_.resize(shape_.vfs);
    for (std::uint32_t i = 0; i < shape_.vfs; ++i) {
        Tenant &t = tenants_[i];
        const bool heavy = i == 0;
        const std::uint64_t t0 = host_now_ns();
        const fs::InodeId ino = check(
            bed_->create_backing_file("/vf/" + std::to_string(i) + ".img",
                                      shape_.image_blocks,
                                      /*preallocate=*/i >= shape_.sparse_vfs),
            "backing file");
        const std::uint64_t t1 = host_now_ns();
        tally_.provision_ns += t1 - t0;

        // VF bring-up: the steps of Testbed::create_nesc_guest, with a
        // per-tenant driver shape.
        drv::FunctionDriverConfig driver_config = bed_->config().vf_driver;
        const pcie::FunctionId fn =
            check(pf.create_vf(ino, shape_.image_blocks), "create VF");
        if (heavy && shape_.heavy_queue_pairs > 1) {
            check(pf.set_qp_quota(fn, shape_.heavy_queue_pairs), "qp quota");
            driver_config.queue_pairs = shape_.heavy_queue_pairs;
        }
        t.weight = heavy ? shape_.heavy_weight : 1;
        if (t.weight != 1)
            check(pf.set_qos_weight(fn, t.weight), "qos weight");
        t.driver = std::make_unique<drv::FunctionDriver>(
            bed_->sim(), bed_->host_memory(), bed_->bar(), bed_->irq(), fn,
            driver_config);
        check(t.driver->init(), "VF driver");
        tally_.create_vf_ns += host_now_ns() - t1;

        if (shape_.durable)
            check(pf.set_slo(fn, kSloP99Ns, kSloErrorPpm), "slo");
        const std::uint32_t qd = heavy ? shape_.heavy_qd : shape_.tenant_qd;
        t.buffer = check(bed_->host_memory().alloc(kChunkBytes * qd, 64),
                         "buffer");
        t.slots.resize(qd);
        t.rng = util::Rng(seeder_.next());
        t.oracle.assign(chunks, 0);
        t.busy.assign(chunks, false);
    }
    tally_.setup_ns = host_now_ns() - start;
}

void
VfInstance::issue(std::uint32_t tenant, std::uint32_t slot_index)
{
    sim::Simulator &sim = bed_->sim();
    if (sim.now() >= deadline_)
        return;
    Tenant &t = tenants_[tenant];
    Slot &slot = t.slots[slot_index];
    const std::uint64_t chunks = t.oracle.size();
    // Never two requests in flight on one chunk, so the reference copy
    // stays exact.
    do {
        slot.chunk = t.rng.next_below(chunks);
    } while (t.busy[slot.chunk]);
    slot.write =
        shape_.write_ratio > 0.0 && t.rng.next_bool(shape_.write_ratio);
    t.busy[slot.chunk] = true;
    const pcie::HostAddr buffer = t.buffer + slot_index * kChunkBytes;
    if (slot.write) {
        slot.version = t.oracle[slot.chunk] + 1;
        fill_pattern(seed_, tenant, slot.chunk, slot.version, expected_);
        check(bed_->host_memory().write(buffer, expected_), "payload");
    }

    ++tally_.attempted;
    const std::uint64_t generation = ++slot.generation;
    slot.issued = sim.now();
    slot.outstanding = true;
    slot.in_submit = true;
    ledger_.enter(HostLedger::kSubmit);
    const util::Status submitted = t.driver->submit(
        slot.write ? ctrl::Opcode::kWrite : ctrl::Opcode::kRead,
        slot.chunk * kChunkBlocks, kChunkBlocks, buffer,
        [this, tenant, slot_index, generation](ctrl::CompletionStatus status) {
            complete(tenant, slot_index, generation, status);
        });
    ledger_.leave();
    ++tally_.submits;
    if (slot.generation == generation && slot.in_submit) {
        slot.in_submit = false;
        slot.submit_returned = sim.now();
    }
    if (!submitted.is_ok()) {
        ++tally_.not_ok;
        slot.outstanding = false;
        t.busy[slot.chunk] = false;
        tally_.problems.push_back("submit refused: " +
                                  submitted.to_string());
    }
}

void
VfInstance::complete(std::uint32_t tenant, std::uint32_t slot_index,
                     std::uint64_t generation, ctrl::CompletionStatus status)
{
    ledger_.enter(HostLedger::kBench);
    sim::Simulator &sim = bed_->sim();
    const sim::Time now = sim.now();
    Tenant &t = tenants_[tenant];
    Slot &slot = t.slots[slot_index];
    if (!slot.outstanding || slot.generation != generation) {
        ++tally_.stray_completions;
        ledger_.leave();
        return;
    }
    slot.outstanding = false;

    // Split of the request's simulated time: inside the submit call,
    // then device + completion. A request can complete inside its own
    // submit when a fault handler run from the submit's simulator step
    // services it synchronously; its whole time is then the submit's.
    const sim::Time submit_end = slot.in_submit ? now : slot.submit_returned;
    if (slot.in_submit) {
        ++tally_.completed_in_submit;
        slot.in_submit = false;
    }
    if (submit_end < slot.issued || now < submit_end)
        ++tally_.split_errors;
    tally_.e2e_ns += now - slot.issued;
    tally_.submit_ns += submit_end - slot.issued;
    tally_.device_ns += now - submit_end;
    ++t.completed;
    if (now >= warmup_at_ && now < deadline_) {
        ++t.measured;
        tally_.latencies.push_back(now - slot.issued);
    }

    if (status != ctrl::CompletionStatus::kOk) {
        ++tally_.not_ok;
    } else if (slot.write) {
        t.oracle[slot.chunk] = slot.version;
    } else {
        check(bed_->host_memory().read(t.buffer + slot_index * kChunkBytes,
                                       readback_),
              "read back");
        const std::uint32_t version = t.oracle[slot.chunk];
        if (version == 0)
            std::fill(expected_.begin(), expected_.end(), std::byte{0});
        else
            fill_pattern(seed_, tenant, slot.chunk, version, expected_);
        if (readback_ != expected_)
            ++tally_.mismatches;
    }
    t.busy[slot.chunk] = false;

    if (shape_.think_mean_ns > 0.0) {
        const double think =
            -shape_.think_mean_ns * std::log1p(-t.rng.next_double());
        sim.schedule_in(static_cast<sim::Duration>(think),
                        [this, tenant, slot_index]() {
                            ledger_.enter(HostLedger::kBench);
                            issue(tenant, slot_index);
                            ledger_.leave();
                        });
    } else {
        issue(tenant, slot_index);
    }
    ledger_.leave();
}

Tally
VfInstance::run()
{
    // The lazy-allocation fault path logs its failures as warnings;
    // they are counted, not printed.
    util::ScopedLogSink log;
    setup();

    sim::Simulator &sim = bed_->sim();
    ctrl::Controller &ctrl = bed_->controller();
    if (traced_)
        ctrl.enable_tracing();
    const obs::MetricsRegistry counters_before = ctrl.counters();
    const obs::LogHistogram queue_before = ctrl.stage_queue_wait();
    const obs::LogHistogram translate_before = ctrl.stage_translation();
    const obs::LogHistogram transfer_before = ctrl.stage_transfer();
    std::vector<ctrl::FunctionStats> stats_before;
    for (pcie::FunctionId fn = 0; fn <= shape_.vfs; ++fn)
        stats_before.push_back(ctrl.stats(fn)); // [0] (the PF) unused
    const std::uint64_t faults_before = bed_->pf().write_misses_serviced();

    // Clients come online in a seed-drawn order at seed-drawn times.
    util::Rng starts(seeder_.next());
    const sim::Time t0 = sim.now();
    warmup_at_ = t0 + shape_.warmup;
    deadline_ = warmup_at_ + shape_.measure;
    for (std::uint32_t i = 0; i < shape_.vfs; ++i)
        for (std::uint32_t s = 0; s < tenants_[i].slots.size(); ++s)
            sim.schedule_at(t0 + starts.next_below(shape_.start_spread + 1),
                            [this, i, s]() {
                                ledger_.enter(HostLedger::kBench);
                                issue(i, s);
                                ledger_.leave();
                            });

    const std::uint64_t events_before = sim.events_executed();
    const std::uint64_t run_start = host_now_ns();
    ledger_.start();
    sim.run_until(deadline_);
    sim.run_until_idle();
    ledger_.stop();
    tally_.run_ns = host_now_ns() - run_start;
    tally_.events = sim.events_executed() - events_before;
    tally_.loop_host_ns = ledger_.ns(HostLedger::kLoop);
    tally_.submit_host_ns = ledger_.ns(HostLedger::kSubmit);

    std::vector<std::uint64_t> served, weights;
    for (const Tenant &t : tenants_) {
        tally_.completed += t.completed;
        served.push_back(t.measured);
        weights.push_back(t.weight);
    }
    tally_.share_err_max = share_error_max(served, weights);
    tally_.queue = StageDelta::between(queue_before, ctrl.stage_queue_wait());
    tally_.translate =
        StageDelta::between(translate_before, ctrl.stage_translation());
    tally_.transfer =
        StageDelta::between(transfer_before, ctrl.stage_transfer());
    for (const char *name : kControllerCounters)
        tally_.counts[name] =
            ctrl.counters().get(name) - counters_before.get(name);
    tally_.counts["write_misses_serviced"] =
        bed_->pf().write_misses_serviced() - faults_before;
    std::uint64_t fault_warnings = 0;
    for (const util::ScopedLogSink::Record &record : log.records())
        if (record.level == util::LogLevel::kWarn &&
            record.message.find("fault service") != std::string::npos)
            ++fault_warnings;
    tally_.counts["fault_service_failures"] = fault_warnings;
    for (const Tenant &t : tenants_) {
        tally_.counts["retries"] += t.driver->retries();
        tally_.counts["timeouts"] += t.driver->timeouts();
    }

    // Every OK VF block op (media or zero-filled hole) feeds the stage
    // histograms once; the PF's own I/O bypasses arbitration and does
    // not. So the histogram count is the VF block ops executed, which
    // is exactly four per OK completion the benchmark observed.
    std::uint64_t vf_blocks = 0;
    for (pcie::FunctionId fn = 1; fn <= shape_.vfs; ++fn) {
        const ctrl::FunctionStats &now = ctrl.stats(fn);
        const ctrl::FunctionStats &was = stats_before[fn];
        vf_blocks += (now.blocks_read - was.blocks_read) +
                     (now.blocks_written - was.blocks_written) +
                     (now.holes_zero_filled - was.holes_zero_filled);
    }
    const std::uint64_t stage_ops = tally_.queue.count;
    if (stage_ops != vf_blocks || tally_.translate.count != stage_ops ||
        tally_.transfer.count != stage_ops)
        tally_.problems.push_back("controller stage-histogram count " +
                                  std::to_string(stage_ops) +
                                  " != VF block ops executed " +
                                  std::to_string(vf_blocks));
    const std::uint64_t ok_completions = tally_.completed - tally_.not_ok;
    if (stage_ops != ok_completions * kChunkBlocks)
        tally_.problems.push_back("controller stage-histogram count " +
                                  std::to_string(stage_ops) +
                                  " != 4 x OK completions observed " +
                                  std::to_string(ok_completions));
    // The submit span of each request ends between its submission and
    // its completion, so submit + device partitions end-to-end time.
    if (tally_.split_errors != 0 ||
        tally_.submit_ns + tally_.device_ns != tally_.e2e_ns)
        tally_.problems.push_back("per-request submit + device simulated "
                                  "time does not sum to end-to-end time");
    if (tally_.stray_completions != 0)
        tally_.problems.push_back(std::to_string(tally_.stray_completions) +
                                  " completions for requests not in flight");
    if (traced_) {
        const obs::StageTotals &traced_queue =
            ctrl.tracer().totals(obs::Stage::kQueueWait);
        if (traced_queue.count != stage_ops ||
            traced_queue.total_ns != tally_.queue.sum_ns)
            tally_.problems.push_back("controller tracer queue-wait totals "
                                      "disagree with the stage histogram");
    }

    // Host nestfs consistency after the run: the write-miss fault
    // service allocates the sparse images' blocks during it. I/O to
    // preallocated images leaves the host nestfs untouched.
    if (shape_.sparse_vfs > 0) {
        // An fsck that cannot even read the volume counts as one error.
        auto report = bed_->hv_fs().fsck();
        if (!report.is_ok()) {
            tally_.fsck_errors = 1;
        } else {
            tally_.fsck_errors = report.value().errors.size();
            if (!report.value().clean && tally_.fsck_errors == 0)
                tally_.fsck_errors = 1;
        }
    }
    return std::move(tally_);
}

RepResult
run_shape(const VfShape &shape, const RepOptions &options)
{
    Tally all;
    util::Rng seeds(options.seed);
    for (std::uint32_t i = 0; i < shape.instances; ++i) {
        const std::uint64_t seed =
            shape.instances == 1 ? options.seed : seeds.next();
        all.add(VfInstance(shape, seed, options.traced).run());
    }

    RepResult result;
    result.setup_s = static_cast<double>(all.setup_ns) / 1e9;
    result.run_host_s = static_cast<double>(all.run_ns) / 1e9;
    result.ops = all.completed;
    result.events = all.events;
    result.attempted = all.attempted;
    result.failed = all.not_ok + all.mismatches;
    result.data_errors = all.mismatches + all.fsck_errors;
    result.problems = std::move(all.problems);

    const auto ratio = [](double num, double den) {
        return den == 0.0 ? 0.0 : num / den;
    };
    const auto count = [&](const char *name) {
        return static_cast<double>(all.counts[name]);
    };
    const double completed = static_cast<double>(all.completed);
    const double samples = static_cast<double>(all.latencies.size());
    Figures &s = result.sim;
    s["sim_ops_per_s"] =
        samples / (static_cast<double>(shape.measure * shape.instances) /
                   1e9);
    s["sim_lat_p50_us"] =
        static_cast<double>(percentile_rank(all.latencies, 50)) / 1e3;
    s["sim_lat_p99_us"] =
        static_cast<double>(percentile_rank(all.latencies, 99)) / 1e3;
    s["sim.lat_samples"] = samples;
    s["share_err_max"] = all.share_err_max;
    s["op_failure_ratio"] =
        ratio(static_cast<double>(result.failed),
              static_cast<double>(all.attempted));
    s["sim.events_per_op"] = ratio(static_cast<double>(all.events), completed);
    s["drivers.submit_sim_us_per_req"] =
        ratio(static_cast<double>(all.submit_ns) / 1e3, completed);
    s["drivers.completions_in_submit"] =
        static_cast<double>(all.completed_in_submit);
    s["nesc.device_sim_us_per_req"] =
        ratio(static_cast<double>(all.device_ns) / 1e3, completed);
    s["nesc.queue_wait_us_p50"] = all.queue.percentile_ns(50) / 1e3;
    s["nesc.queue_wait_us_p99"] = all.queue.percentile_ns(99) / 1e3;
    s["nesc.queue_wait_us_mean"] = all.queue.mean_us();
    s["nesc.translate_us_mean"] = all.translate.mean_us();
    s["nesc.transfer_us_mean"] = all.transfer.mean_us();
    s["nesc.stage_ops"] = static_cast<double>(all.queue.count);
    s["nesc.btlb_hit_rate"] =
        ratio(count("btlb_hits"), count("btlb_hits") + count("btlb_misses"));
    s["nesc.node_cache_hit_rate"] =
        ratio(count("node_cache_hits"),
              count("node_cache_hits") + count("node_cache_misses"));
    s["nesc.walk_node_reads_per_op"] =
        ratio(count("walk_node_reads"), completed);
    s["nesc.rewalks"] = count("rewalks");
    s["drivers.write_misses_serviced"] = count("write_misses_serviced");
    s["drivers.fault_service_failures"] = count("fault_service_failures");
    s["drivers.retries"] = count("retries");
    s["drivers.timeouts"] = count("timeouts");
    s["repl.writes"] = count("repl_writes");
    s["repl.read_failures"] = count("repl_read_failures");
    s["storage.checksum_mismatches"] = count("checksum_mismatches");
    s["storage.checksum_rereads"] = count("checksum_rereads");
    s["obs.slo_breaches"] = count("slo_breaches");
    s["fs.hv_fsck_errors"] = static_cast<double>(all.fsck_errors);

    result.host["fs.provision_s"] =
        static_cast<double>(all.provision_ns) / 1e9;
    result.host["drivers.create_vf_s"] =
        static_cast<double>(all.create_vf_ns) / 1e9;
    if (options.traced) {
        result.host["drivers.submit_host_ns"] =
            ratio(static_cast<double>(all.submit_host_ns),
                  static_cast<double>(all.submits));
        result.host["nesc.device_host_ns_per_op"] =
            ratio(static_cast<double>(all.loop_host_ns), completed);
    }
    return result;
}

} // namespace

RepResult
run_vf256_read(const RepOptions &options)
{
    return run_shape(kVf256Read, options);
}

RepResult
run_lazy_write_durable(const RepOptions &options)
{
    return run_shape(kLazyWriteDurable, options);
}

RepResult
run_lazy_write_contended(const RepOptions &options)
{
    return run_shape(kLazyWriteContended, options);
}

StageDelta
StageDelta::between(const obs::LogHistogram &before,
                    const obs::LogHistogram &after)
{
    StageDelta d;
    d.count = after.count() - before.count();
    d.sum_ns = after.sum() - before.sum();
    for (std::size_t b = 0; b < d.buckets.size(); ++b)
        d.buckets[b] = after.buckets()[b] - before.buckets()[b];
    return d;
}

void
StageDelta::add(const StageDelta &other)
{
    count += other.count;
    sum_ns += other.sum_ns;
    for (std::size_t b = 0; b < buckets.size(); ++b)
        buckets[b] += other.buckets[b];
}

double
StageDelta::percentile_ns(double p) const
{
    if (count == 0)
        return 0.0;
    const double rank = p / 100.0 * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        seen += buckets[b];
        if (buckets[b] != 0 && static_cast<double>(seen) >= rank)
            // Bucket b holds [2^(b-1), 2^b): its geometric midpoint.
            return b == 0 ? 0.0
                          : std::sqrt(std::ldexp(1.0, 2 * static_cast<int>(b) - 1));
    }
    return 0.0;
}

double
StageDelta::mean_us() const
{
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) / 1e3 /
                            static_cast<double>(count);
}

} // namespace perfbench
