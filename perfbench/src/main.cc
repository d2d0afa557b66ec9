/**
 * @file
 * Repository benchmark driver.
 *
 *   perfbench --workload <vf256_read|nested_apps|lazy_write_durable>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * (--workload lazy_write_contended reproduces a known defect of the
 * write-miss fault service; it is not one of BENCHMARK.json's.)
 *
 * One workload per process, all load from this single thread. A run
 * repeats {set up a fresh testbed, run the fixed simulated workload}
 * until --seconds of host time have passed (at least three times), so
 * host-clock metrics are medians over repetitions while every
 * simulated figure must repeat bit-for-bit between them. With
 * --trace 1 the repetitions are followed by one traced repetition
 * (host stamps at each layer boundary, controller Tracer on) that must
 * reproduce the simulated figures exactly and supplies the per-layer
 * host figures.
 *
 * The last stdout line is one JSON object: {"correct", "attempted",
 * "failed", "metrics": {name: {"value", "unit"}}} with the end-to-end
 * metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 3
 * when the simulation fails to repeat itself; 2 on bad arguments or a
 * failed setup.
 */
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "layer_trace.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct MetricDef {
    const char *name;
    const char *unit;
};

/** End-to-end metrics (--trace 0), in BENCHMARK.json order. */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_ops_per_s", "ops/s"},
    {"host_peak_rss_mb", "MiB"},
    {"sim_ops_per_s", "sim_ops/s"},
    {"sim_lat_p50_us", "sim_us"},
    {"sim_lat_p99_us", "sim_us"},
};

/** Per-layer metrics (--trace 1), in BENCHMARK.json order. */
constexpr MetricDef kPerLayer[] = {
    {"fs.provision_s", "s"},
    {"drivers.create_vf_s", "s"},
    {"fs.guest_format_s", "s"},
    {"sim.events_per_op", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.lat_samples", "count"},
    {"drivers.submit_host_ns", "ns"},
    {"drivers.submit_sim_us_per_req", "sim_us"},
    {"drivers.completions_in_submit", "count"},
    {"nesc.device_host_ns_per_op", "ns"},
    {"nesc.device_sim_us_per_req", "sim_us"},
    {"nesc.vf_sim_us_per_req", "sim_us"},
    {"nesc.queue_wait_us_p50", "sim_us"},
    {"nesc.queue_wait_us_p99", "sim_us"},
    {"nesc.queue_wait_us_mean", "sim_us"},
    {"nesc.translate_us_mean", "sim_us"},
    {"nesc.transfer_us_mean", "sim_us"},
    {"nesc.stage_ops", "count"},
    {"nesc.btlb_hit_rate", "ratio"},
    {"nesc.node_cache_hit_rate", "ratio"},
    {"nesc.walk_node_reads_per_op", "count"},
    {"nesc.rewalks", "count"},
    {"guest.self_sim_us_per_op", "sim_us"},
    {"guest.self_host_s", "s"},
    {"blocklayer.guest_cache_hit_rate", "ratio"},
    {"virt.hop_sim_us_per_req.virtio", "sim_us"},
    {"virt.hop_sim_us_per_req.emulation", "sim_us"},
    {"fs.hv_file_sim_us_per_req.virtio", "sim_us"},
    {"fs.hv_file_sim_us_per_req.emulation", "sim_us"},
    {"virt.virtio_ops_per_s", "sim_ops/s"},
    {"virt.emulation_ops_per_s", "sim_ops/s"},
    {"virt.speedup_vs_virtio", "ratio"},
    {"virt.speedup_vs_emulation", "ratio"},
    {"drivers.write_misses_serviced", "count"},
    {"drivers.fault_service_failures", "count"},
    {"drivers.retries", "count"},
    {"drivers.timeouts", "count"},
    {"repl.writes", "count"},
    {"repl.read_failures", "count"},
    {"storage.checksum_mismatches", "count"},
    {"storage.checksum_rereads", "count"},
    {"obs.slo_breaches", "count"},
    {"fs.hv_fsck_errors", "count"},
    {"share_err_max", "ratio"},
    {"op_failure_ratio", "ratio"},
    {"trace.host_overhead_ratio", "ratio"},
};

/** Repetitions per run, whatever --seconds says. */
constexpr int kMinReps = 3;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<vf256_read|nested_apps|lazy_write_durable> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why);
    std::exit(2);
}

double
peak_rss_mib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** The simulated figures and counts of a repetition. */
Figures
repeatable_figures(const RepResult &rep)
{
    Figures figures = rep.sim;
    figures["ops"] = static_cast<double>(rep.ops);
    figures["events"] = static_cast<double>(rep.events);
    figures["attempted"] = static_cast<double>(rep.attempted);
    figures["failed"] = static_cast<double>(rep.failed);
    figures["data_errors"] = static_cast<double>(rep.data_errors);
    return figures;
}

/** Names of simulated figures and counts that differ between two reps. */
std::string
sim_differences(const RepResult &rep_a, const RepResult &rep_b)
{
    const Figures a = repeatable_figures(rep_a);
    const Figures b = repeatable_figures(rep_b);
    std::string out;
    for (const auto &[name, value] : a) {
        auto it = b.find(name);
        if (it == b.end() ||
            std::memcmp(&it->second, &value, sizeof value) != 0)
            out += " " + name;
    }
    for (const auto &[name, value] : b)
        if (a.find(name) == a.end())
            out += " " + name;
    return out;
}

void
print_json(bool correct, const RepResult &rep, const Figures &metrics,
           const MetricDef *defs, std::size_t count)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    for (std::size_t i = 0; i < count; ++i) {
        double value = metrics.at(defs[i].name);
        if (!std::isfinite(value))
            value = 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", defs[i].name, value, defs[i].unit);
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t process_start = host_now_ns();
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value");
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            seed = std::strtoull(value, &end, 10);
            if (*end != '\0')
                usage("--seed is not a number");
        } else if (arg == "--seconds") {
            seconds = std::strtod(value, &end);
            if (*end != '\0' || !(seconds > 0))
                usage("--seconds is not a positive number");
        } else if (arg == "--trace") {
            if (std::string_view(value) != "0" &&
                std::string_view(value) != "1")
                usage("--trace must be 0 or 1");
            trace = value[0] - '0';
        } else {
            usage("unknown argument");
        }
    }
    if (workload.empty() || seconds < 0 || trace < 0)
        usage("--workload, --seconds and --trace are required");

    RepResult (*run_rep)(const RepOptions &) = nullptr;
    if (workload == "vf256_read")
        run_rep = run_vf256_read;
    else if (workload == "nested_apps")
        run_rep = run_nested_apps;
    else if (workload == "lazy_write_durable")
        run_rep = run_lazy_write_durable;
    else if (workload == "lazy_write_contended")
        run_rep = run_lazy_write_contended;
    else
        usage("unknown workload");

    // Untraced repetitions: the end-to-end measurement. A traced run
    // spends half its budget here (the overhead baseline) and then one
    // traced repetition.
    const double untraced_budget = trace ? seconds / 2 : seconds;
    std::vector<RepResult> reps;
    std::vector<double> setup_s, ops_per_s, ns_per_event;
    while (reps.size() < (trace ? 1u : static_cast<std::size_t>(kMinReps)) ||
           host_seconds(process_start, host_now_ns()) < untraced_budget) {
        const std::uint64_t rep_start = host_now_ns();
        RepResult rep = run_rep(RepOptions{seed, false});
        if (reps.empty())
            // The first repetition's setup also pays process start-up.
            rep.setup_s += host_seconds(process_start, rep_start);
        setup_s.push_back(rep.setup_s);
        ops_per_s.push_back(static_cast<double>(rep.ops) / rep.run_host_s);
        ns_per_event.push_back(rep.run_host_s * 1e9 /
                               static_cast<double>(rep.events));
        std::printf("rep %zu: setup %.3f s, run %.3f s, %llu ops, "
                    "%llu events\n",
                    reps.size(), rep.setup_s, rep.run_host_s,
                    static_cast<unsigned long long>(rep.ops),
                    static_cast<unsigned long long>(rep.events));
        if (!reps.empty()) {
            const std::string diff = sim_differences(reps[0], rep);
            if (!diff.empty()) {
                std::fprintf(stderr,
                             "perfbench: simulated figures differ between "
                             "repetitions of seed %llu:%s\n",
                             static_cast<unsigned long long>(seed),
                             diff.c_str());
                return 3;
            }
        }
        reps.push_back(std::move(rep));
    }
    const RepResult &first = reps[0];

    std::vector<std::string> problems = first.problems;
    Figures out = first.sim;
    if (trace) {
        const RepResult traced = run_rep(RepOptions{seed, true});
        const std::string diff = sim_differences(first, traced);
        if (!diff.empty()) {
            std::fprintf(stderr,
                         "perfbench: the traced run changed simulated "
                         "figures:%s\n",
                         diff.c_str());
            return 3;
        }
        for (const std::string &p : traced.problems)
            problems.push_back("traced: " + p);
        for (const auto &[name, value] : traced.host)
            out[name] = value;
        std::vector<double> run_s;
        for (const RepResult &rep : reps)
            run_s.push_back(rep.run_host_s);
        out["trace.host_overhead_ratio"] = traced.run_host_s / median(run_s);
        out["sim.host_ns_per_event"] = median(ns_per_event);
    } else {
        out["setup_s"] = median(setup_s);
        out["host_ops_per_s"] = median(ops_per_s);
        out["host_peak_rss_mb"] = peak_rss_mib();
    }

    for (const std::string &p : problems)
        std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
    if (first.data_errors != 0)
        std::fprintf(stderr,
                     "perfbench: %llu wrong results (oracle mismatches "
                     "and fsck errors)\n",
                     static_cast<unsigned long long>(first.data_errors));
    const bool correct = problems.empty() && first.data_errors == 0;
    std::printf("%s: %zu untraced repetition(s), correct=%s, attempted "
                "%llu, failed %llu\n",
                workload.c_str(), reps.size(), correct ? "true" : "false",
                static_cast<unsigned long long>(first.attempted),
                static_cast<unsigned long long>(first.failed));
    if (trace) {
        // Layers a workload does not exercise read 0.
        for (const MetricDef &def : kPerLayer)
            out.try_emplace(def.name, 0.0);
        print_json(correct, first, out, kPerLayer, std::size(kPerLayer));
    } else {
        print_json(correct, first, out, kEndToEnd, std::size(kEndToEnd));
    }
    return 0;
}
