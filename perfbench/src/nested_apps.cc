/**
 * @file
 * nested_apps: the Figure 12 application set over the three I/O paths
 * of Figure 1. Three image-backed guests (NeSC VF, virtio, emulation)
 * each format a guest nestfs and run OLTP (indexed point selects),
 * Postmark and SysBench-fileio serially, one client per guest.
 *
 * Guests are assembled here from the same public constructors the
 * Testbed factories use, with a pass-through recorder at each disk
 * boundary: guest stack -> virtual disk (VF, virtio or emulation) ->
 * FileBlockIo on the host nestfs. The recorders charge no simulated
 * time, so the run is the one the factories would build.
 */
#include <memory>
#include <string>
#include <vector>

#include "drivers/function_driver.h"
#include "layer_trace.h"
#include "stats.h"
#include "virt/testbed.h"
#include "virt/virtual_disk.h"
#include "workloads.h"
#include "workloads/fileio.h"
#include "workloads/oltp.h"
#include "workloads/postmark.h"

namespace perfbench {

using namespace nesc;

namespace {

/** 48 MiB guest images, preallocated (the fig12_apps sizes). */
constexpr std::uint64_t kImageBlocks = 49152;

/** Disk-chain layers of a guest, outermost first. */
enum Layer : std::size_t { kVirtualDisk = 0, kHostFile = 1, kLayers };

enum class Path { kNesc, kVirtio, kEmulation };

const char *
path_name(Path path)
{
    switch (path) {
      case Path::kNesc: return "nesc";
      case Path::kVirtio: return "virtio";
      case Path::kEmulation: return "emulation";
    }
    return "?";
}

struct Guest {
    Path path = Path::kNesc;
    std::unique_ptr<SpanStack> spans;
    /** After spans: its unmount at teardown runs through the recorders. */
    std::unique_ptr<virt::GuestVm> vm;
    std::uint64_t app_sim_ns = 0;
    std::uint64_t app_host_ns = 0;
    std::uint64_t app_ops = 0;
    std::uint64_t failed_ops = 0;
};

struct AppShape {
    wl::OltpConfig oltp;
    wl::PostmarkConfig postmark;
    wl::FileioConfig fileio;
};

/**
 * Per-run inputs drawn from the seed; identical on the three paths so
 * their times compare. fileio's 4 MiB exceeds the 2 MiB guest buffer
 * cache; OLTP's 2048 x 100 B table stays inside it.
 */
AppShape
app_shape(std::uint64_t seed)
{
    util::Rng rng(seed ^ 0x6e65'7374'6564'0000ULL);
    AppShape shape;
    shape.oltp.transactions = 300;
    shape.oltp.db.rows = 2048;
    shape.oltp.use_index = true;
    shape.oltp.seed = rng.next();
    shape.postmark.initial_files = 40;
    shape.postmark.transactions = 600;
    shape.postmark.seed = rng.next();
    shape.fileio.num_files = 4;
    shape.fileio.file_bytes = 1024 * 1024;
    shape.fileio.operations = 2000;
    shape.fileio.seed = rng.next();
    return shape;
}

class AppsRun {
  public:
    explicit AppsRun(const RepOptions &options) : options_(options) {}
    RepResult run();

  private:
    Guest make_guest(Path path);
    void run_apps(Guest &guest, const AppShape &shape);

    RepOptions options_;
    std::unique_ptr<virt::Testbed> bed_;
    std::vector<std::uint64_t> latencies_; ///< NeSC guest disk calls
    std::uint64_t provision_ns_ = 0;
    std::uint64_t create_vf_ns_ = 0;
    std::vector<std::string> problems_;
};

Guest
AppsRun::make_guest(Path path)
{
    virt::Testbed &bed = *bed_;
    sim::Simulator &sim = bed.sim();
    Guest guest;
    guest.path = path;
    guest.spans = std::make_unique<SpanStack>(sim, kLayers, options_.traced);
    const std::string image =
        std::string("/images/app-") + path_name(path) + ".img";

    const std::uint64_t t0 = host_now_ns();
    const fs::InodeId ino =
        check(bed.create_backing_file(image, kImageBlocks, true), "image");
    const std::uint64_t t1 = host_now_ns();
    provision_ns_ += t1 - t0;

    std::vector<std::shared_ptr<void>> deps;
    blk::BlockIo *device = nullptr;
    if (path == Path::kNesc) {
        // VF bring-up as in Testbed::create_nesc_guest.
        const pcie::FunctionId fn =
            check(bed.pf().create_vf(ino, kImageBlocks), "create VF");
        auto driver = std::make_shared<drv::FunctionDriver>(
            sim, bed.host_memory(), bed.bar(), bed.irq(), fn,
            bed.config().vf_driver);
        check(driver->init(), "VF driver");
        auto vf = std::make_shared<drv::FunctionBlockIo>(*driver,
                                                         kImageBlocks);
        create_vf_ns_ += host_now_ns() - t1;
        device = vf.get();
        deps = {driver, vf};
    } else {
        auto file = std::make_shared<virt::FileBlockIo>(
            sim, bed.hv_fs(), ino, kImageBlocks, bed.costs());
        auto file_rec = std::make_shared<RecordingDisk>(
            *file, *guest.spans, kHostFile);
        std::shared_ptr<blk::BlockIo> vdisk;
        if (path == Path::kVirtio)
            vdisk = std::make_shared<virt::VirtioDisk>(sim, *file_rec,
                                                       bed.costs());
        else
            vdisk = std::make_shared<virt::EmulatedDisk>(sim, *file_rec,
                                                         bed.costs());
        device = vdisk.get();
        deps = {file, file_rec, vdisk};
    }
    auto top = std::make_unique<RecordingDisk>(
        *device, *guest.spans, kVirtualDisk,
        path == Path::kNesc ? &latencies_ : nullptr);
    guest.vm = std::make_unique<virt::GuestVm>(
        sim, std::move(top), std::string(path_name(path)) + "-vm",
        bed.config().guest);
    for (std::shared_ptr<void> &dep : deps)
        guest.vm->hold(std::move(dep));
    return guest;
}

void
AppsRun::run_apps(Guest &guest, const AppShape &shape)
{
    sim::Simulator &sim = bed_->sim();
    const sim::Time sim_start = sim.now();
    const std::uint64_t host_start = host_now_ns();
    const auto note = [&](const char *app, const util::Status &status,
                          std::uint64_t ops) {
        guest.app_ops += ops;
        if (!status.is_ok()) {
            guest.failed_ops += ops;
            problems_.push_back(std::string(app) + " on " +
                                path_name(guest.path) + ": " +
                                status.to_string());
        }
    };
    {
        auto r = wl::run_oltp(sim, *guest.vm, shape.oltp);
        note("oltp", r.status(), shape.oltp.transactions);
    }
    {
        auto r = wl::run_postmark(sim, *guest.vm, shape.postmark);
        note("postmark", r.status(), shape.postmark.transactions);
    }
    {
        auto r = wl::run_fileio(sim, *guest.vm, shape.fileio);
        note("fileio", r.status(), shape.fileio.operations);
    }
    guest.app_sim_ns = sim.now() - sim_start;
    guest.app_host_ns = host_now_ns() - host_start;
}

RepResult
AppsRun::run()
{
    RepResult result;
    const std::uint64_t start = host_now_ns();
    virt::TestbedConfig config;
    config.device.capacity_bytes = 256ULL << 20;
    config.host_memory_bytes = 128ULL << 20;
    bed_ = check(virt::Testbed::create(config), "testbed");

    std::vector<Guest> guests;
    for (Path path : {Path::kNesc, Path::kVirtio, Path::kEmulation})
        guests.push_back(make_guest(path));
    std::uint64_t format_ns = 0;
    for (Guest &guest : guests) {
        const std::uint64_t t0 = host_now_ns();
        check(guest.vm->format_fs(), "guest format_fs");
        format_ns += host_now_ns() - t0;
    }
    result.setup_s = host_seconds(start, host_now_ns());
    result.host["fs.provision_s"] = static_cast<double>(provision_ns_) / 1e9;
    result.host["drivers.create_vf_s"] =
        static_cast<double>(create_vf_ns_) / 1e9;
    result.host["fs.guest_format_s"] = static_cast<double>(format_ns) / 1e9;

    // Spans and latencies of the format are setup, not measurement.
    for (Guest &guest : guests)
        guest.spans->reset();
    latencies_.clear();

    sim::Simulator &sim = bed_->sim();
    ctrl::Controller &ctrl = bed_->controller();
    if (options_.traced)
        ctrl.enable_tracing();
    const obs::LogHistogram queue_before = ctrl.stage_queue_wait();
    const obs::LogHistogram translate_before = ctrl.stage_translation();
    const obs::LogHistogram transfer_before = ctrl.stage_transfer();
    blk::BufferCache *cache = guests[0].vm->fs_stack().cache();
    const std::uint64_t hits_before = cache->hits();
    const std::uint64_t misses_before = cache->misses();

    const AppShape shape = app_shape(options_.seed);
    const std::uint64_t events_before = sim.events_executed();
    const std::uint64_t run_start = host_now_ns();
    std::uint64_t nesc_stage_ops = 0;
    for (Guest &guest : guests) {
        const std::uint64_t stage_before = ctrl.stage_queue_wait().count();
        run_apps(guest, shape);
        if (guest.path == Path::kNesc)
            nesc_stage_ops = ctrl.stage_queue_wait().count() - stage_before;
    }
    result.run_host_s = host_seconds(run_start, host_now_ns());
    result.events = sim.events_executed() - events_before;

    // --- Figures -------------------------------------------------------
    const Guest &nesc = guests[0];
    const Guest &virtio = guests[1];
    const Guest &emulation = guests[2];
    std::uint64_t ops = 0, failed = 0;
    for (const Guest &guest : guests) {
        ops += guest.app_ops;
        failed += guest.failed_ops;
    }
    result.ops = ops;
    result.attempted = ops;
    result.failed = failed;

    const auto per_s = [](std::uint64_t n, std::uint64_t ns) {
        return ns == 0 ? 0.0
                       : static_cast<double>(n) /
                             (static_cast<double>(ns) / 1e9);
    };
    const auto us_per = [](std::uint64_t ns, std::uint64_t n) {
        return n == 0 ? 0.0
                      : static_cast<double>(ns) / 1e3 / static_cast<double>(n);
    };
    const auto ratio = [](double num, double den) {
        return den == 0.0 ? 0.0 : num / den;
    };
    Figures &s = result.sim;
    s["sim_ops_per_s"] = per_s(nesc.app_ops, nesc.app_sim_ns);
    s["sim.lat_samples"] = static_cast<double>(latencies_.size());
    s["sim_lat_p50_us"] =
        static_cast<double>(percentile_rank(latencies_, 50)) / 1e3;
    s["sim_lat_p99_us"] =
        static_cast<double>(percentile_rank(latencies_, 99)) / 1e3;
    s["share_err_max"] = 0.0; // one client per guest
    s["op_failure_ratio"] =
        ratio(static_cast<double>(failed), static_cast<double>(ops));
    s["sim.events_per_op"] =
        ratio(static_cast<double>(result.events), static_cast<double>(ops));

    const LayerTotals &nesc_vf = nesc.spans->layer(kVirtualDisk);
    s["guest.self_sim_us_per_op"] =
        us_per(nesc.app_sim_ns - nesc_vf.sim_ns, nesc.app_ops);
    s["nesc.vf_sim_us_per_req"] = us_per(nesc_vf.sim_ns, nesc_vf.calls);
    const std::uint64_t hits = cache->hits() - hits_before;
    const std::uint64_t misses = cache->misses() - misses_before;
    s["blocklayer.guest_cache_hit_rate"] = ratio(
        static_cast<double>(hits), static_cast<double>(hits + misses));
    for (const Guest *guest : {&virtio, &emulation}) {
        const std::string name = path_name(guest->path);
        const LayerTotals &hop = guest->spans->layer(kVirtualDisk);
        const LayerTotals &file = guest->spans->layer(kHostFile);
        s["virt.hop_sim_us_per_req." + name] =
            us_per(hop.self_sim_ns(), hop.calls);
        s["fs.hv_file_sim_us_per_req." + name] =
            us_per(file.sim_ns, hop.calls);
        s["virt." + name + "_ops_per_s"] =
            per_s(guest->app_ops, guest->app_sim_ns);
        s["virt.speedup_vs_" + name] =
            ratio(static_cast<double>(guest->app_sim_ns),
                  static_cast<double>(nesc.app_sim_ns));
    }

    const StageDelta queue =
        StageDelta::between(queue_before, ctrl.stage_queue_wait());
    s["nesc.queue_wait_us_p50"] = queue.percentile_ns(50) / 1e3;
    s["nesc.queue_wait_us_p99"] = queue.percentile_ns(99) / 1e3;
    s["nesc.queue_wait_us_mean"] = queue.mean_us();
    s["nesc.translate_us_mean"] =
        StageDelta::between(translate_before, ctrl.stage_translation())
            .mean_us();
    s["nesc.transfer_us_mean"] =
        StageDelta::between(transfer_before, ctrl.stage_transfer())
            .mean_us();
    s["nesc.stage_ops"] = static_cast<double>(queue.count);

    // --- Accounting identities ------------------------------------------
    for (const Guest &guest : guests) {
        const std::string name = path_name(guest.path);
        const LayerTotals &top = guest.spans->layer(kVirtualDisk);
        const LayerTotals &file = guest.spans->layer(kHostFile);
        if (guest.spans->nesting_errors() != 0 || !guest.spans->idle())
            problems_.push_back(name + ": disk spans are not nested");
        // Every host-file call runs inside a virtual-disk call, so the
        // layers' self times partition the guest's device time ...
        if (top.child_sim_ns != file.sim_ns)
            problems_.push_back(name + ": host-file spans escape the "
                                       "virtual-disk spans");
        // ... and guest self + disk self + host-file self is the
        // applications' end-to-end simulated time.
        if (top.sim_ns > guest.app_sim_ns ||
            (guest.app_sim_ns - top.sim_ns) + top.self_sim_ns() +
                    file.self_sim_ns() !=
                guest.app_sim_ns)
            problems_.push_back(name + ": layer self times do not sum to "
                                       "the end-to-end time");
        if (top.failures != 0)
            problems_.push_back(name + ": " + std::to_string(top.failures) +
                                " failed disk calls");
    }
    // The NeSC guest is the only VF user while it runs: each block the
    // guest moved is one controller block op.
    if (nesc_stage_ops != nesc_vf.blocks)
        problems_.push_back("controller stage-histogram count " +
                            std::to_string(nesc_stage_ops) +
                            " != blocks the NeSC guest moved " +
                            std::to_string(nesc_vf.blocks));
    if (options_.traced) {
        const obs::StageTotals &traced_queue =
            ctrl.tracer().totals(obs::Stage::kQueueWait);
        if (traced_queue.count != queue.count ||
            traced_queue.total_ns != queue.sum_ns)
            problems_.push_back(
                "controller tracer queue-wait totals disagree with the "
                "stage histogram");
        std::uint64_t guest_self_host = 0;
        for (const Guest &guest : guests)
            guest_self_host += guest.app_host_ns -
                               guest.spans->layer(kVirtualDisk).host_ns;
        result.host["guest.self_host_s"] =
            static_cast<double>(guest_self_host) / 1e9;
        result.host["nesc.device_host_ns_per_op"] =
            nesc_vf.calls == 0 ? 0.0
                               : static_cast<double>(nesc_vf.host_ns) /
                                     static_cast<double>(nesc_vf.calls);
    }

    // --- Correctness after the measurement ------------------------------
    // Guest and host filesystems must be consistent (fsck is itself
    // simulated I/O, so it runs after every figure is taken).
    std::uint64_t fsck_errors = 0;
    const auto count_fsck = [&](util::Result<fs::NestFs::FsckReport> report,
                                const std::string &what) {
        if (!report.is_ok()) {
            problems_.push_back(what + " fsck: " +
                                report.status().to_string());
            return std::uint64_t{0};
        }
        std::uint64_t errors = report.value().errors.size();
        if (!report.value().clean && errors == 0)
            errors = 1;
        return errors;
    };
    const std::uint64_t hv_errors =
        count_fsck(bed_->hv_fs().fsck(), "hypervisor");
    s["fs.hv_fsck_errors"] = static_cast<double>(hv_errors);
    fsck_errors += hv_errors;
    for (Guest &guest : guests)
        fsck_errors += count_fsck(guest.vm->fs()->fsck(),
                                  std::string(path_name(guest.path)) +
                                      " guest");
    result.data_errors = fsck_errors;
    result.problems = std::move(problems_);
    return result;
}

} // namespace

RepResult
run_nested_apps(const RepOptions &options)
{
    return AppsRun(options).run();
}

} // namespace perfbench
