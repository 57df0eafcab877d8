/**
 * @file
 * Benchmark driver: runs one workload for a time budget and prints its
 * metrics as one JSON line (perfbench/README.md).
 *
 *   perfbench_driver --workload fleet_frag --seed 1 --seconds 20 --trace 0
 *
 * Every pass sets up and runs the workload's fixed instance list; the
 * first pass gives the simulated metrics and later passes must repeat
 * them bit for bit. Host times come from the untraced passes, scaled
 * by the host-speed reference (calib.h). With
 * --trace 1, odd passes run under spans and the host profiler and the
 * line carries the layer metrics instead.
 */

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "calib.h"
#include "obs/prof.h"
#include "sim/log.h"
#include "sim/task_pool.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** Passes per run, at least: one, or in a traced run one untraced
 *  and one traced. */
int
min_passes(bool trace)
{
    return trace ? 2 : 1;
}

/** Host-reference samples taken before and after each instance. */
constexpr int kRefSamples = 2;

/** Profiler scopes whose self time the traced run reports. */
const char* const kProfScopes[] = {
    "hyp.routes",       "mapper.exact.rect", "mapper.exact.slide",
    "mapper.exact.vf2", "funnel.enumerate",  "funnel.full_ged",
    "task_pool.drain",  "sim.batch",         "machine.run",
    "noc.send",         "mem.dma"};

/**
 * Restart the kernel's peak-RSS mark (clear_refs "5"), so each instance
 * reports its own peak rather than the largest one so far.
 */
void
reset_peak_rss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set (VmHWM) since the last reset, in MiB. */
double
peak_rss_mib()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    Sizing size;
};

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload "
                 "fleet_frag|admit_similar|tenant_serve --seed N "
                 "--seconds S --trace 0|1 [--instances N] [--ops N] "
                 "[--iterations N]\n",
                 msg);
    std::exit(2);
}

Args
parse(int argc, char** argv)
{
    Args a;
    int instances = 0;
    int ops = 0;
    int iterations = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char* v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v);
        else if (k == "--trace")
            a.trace = std::atoi(v) != 0;
        else if (k == "--instances")
            instances = std::atoi(v);
        else if (k == "--ops")
            ops = std::atoi(v);
        else if (k == "--iterations")
            iterations = std::atoi(v);
        else
            usage(("unknown option " + k).c_str());
    }
    // Pass sizes: enough simulated work that the sim_* metrics and the
    // per-pass host time vary little from seed to seed (README.md).
    if (a.workload == "fleet_frag")
        a.size = {9, 1600, 0};
    else if (a.workload == "admit_similar")
        a.size = {9, 60, 0};
    else if (a.workload == "tenant_serve")
        a.size = {16, 0, 200};
    else
        usage("unknown workload");
    if (instances > 0)
        a.size.instances = instances;
    if (ops > 0)
        a.size.ops = ops;
    if (iterations > 0)
        a.size.iterations = iterations;
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

/** Per-instance medians over passes. */
std::vector<double>
instance_medians(const std::vector<std::vector<double>>& t)
{
    std::vector<double> out;
    for (const auto& v : t)
        out.push_back(median(v));
    return out;
}

/**
 * A pass's run time: instances x the median instance's time. The
 * instances have one nominal size, and a few seeds draw instances that
 * cost several times the typical one, so the plain sum would follow
 * those few (README.md, "How a run works").
 */
double
pass_time(const std::vector<std::vector<double>>& t)
{
    return static_cast<double>(t.size()) * median(instance_medians(t));
}

/** The result line; run.py keeps correct/attempted/failed/metrics
 *  and prints the run facts (hash48, passes, workers) beside it. */
void
print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
           std::uint64_t hash48, int passes, int workers, const Metrics& m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"hash48\": %llu, \"passes\": %d, \"workers\": %d, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(hash48), passes, workers);
    bool first = true;
    for (const auto& [name, vu] : m.all()) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), vu.first,
                    vu.second.c_str());
        first = false;
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char** argv)
{
    const Args a = parse(argc, argv);
    vnpu::set_log_level(vnpu::LogLevel::kError);

    std::unique_ptr<Workload> w;
    if (a.workload == "fleet_frag")
        w = make_fleet_frag(a.seed, a.size);
    else if (a.workload == "admit_similar")
        w = make_admit_similar(a.seed, a.size);
    else
        w = make_tenant_serve(a.seed, a.size);

    const int n = w->num_instances();
    // Per instance, one entry per pass: scaled and raw host seconds.
    using PerInstance = std::vector<std::vector<double>>;
    PerInstance setup_t(static_cast<std::size_t>(n));
    PerInstance run_t(static_cast<std::size_t>(n));
    PerInstance setup_raw_t(static_cast<std::size_t>(n));
    PerInstance run_raw_t(static_cast<std::size_t>(n));
    PerInstance traced_run_raw_t(static_cast<std::size_t>(n));
    std::vector<double> calib;
    std::vector<double> peak_rss_mb;
    std::vector<std::uint64_t> hashes(static_cast<std::size_t>(n), 0);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> work(static_cast<std::size_t>(n), 0.0);
    vnpu::obs::Profiler prof;
    int passes = 0;
    int traced_passes = 0;

    // The TaskPool is process-wide; start its workers before timing.
    const int workers = vnpu::TaskPool::instance().num_workers();

    const Clock::time_point start = Clock::now();
    double last_pass_s = 0.0;
    for (;; ++passes) {
        const bool traced = a.trace && passes % 2 == 1;
        const bool first = passes == 0;
        const Clock::time_point pass_t0 = Clock::now();
        if (traced)
            vnpu::obs::set_profiler(&prof);
        for (int i = 0; i < n; ++i) {
            const std::size_t ui = static_cast<std::size_t>(i);
            std::vector<double> ref_t;
            for (int k = 0; k < kRefSamples; ++k)
                ref_t.push_back(reference_sample());
            // Return freed heap to the kernel first, so the mark starts
            // from live data rather than from earlier instances' garbage.
            malloc_trim(0);
            reset_peak_rss();
            try {
                const Clock::time_point t0 = Clock::now();
                w->setup(i, traced);
                const Clock::time_point t1 = Clock::now();
                w->run(i, traced);
                const double rs = seconds_since(t1);
                const double ss = std::chrono::duration<double>(t1 - t0).count();
                InstanceOutcome o = w->finish(i, first);
                peak_rss_mb.push_back(peak_rss_mib());
                // The host's speed can change within a run, so each
                // instance is scaled by samples taken around it.
                for (int k = 0; k < kRefSamples; ++k)
                    ref_t.push_back(reference_sample());
                calib.insert(calib.end(), ref_t.begin(), ref_t.end());
                const double scale =
                    std::pow(kRefSeconds / median(ref_t), kRefExponent);
                std::fprintf(stderr,
                             "perfbench: pass %d instance %d setup %.4fs "
                             "run %.4fs work %.0f ref %.5fs\n",
                             passes, i, ss, rs, o.work, median(ref_t));
                if (traced) {
                    traced_run_raw_t[ui].push_back(rs);
                } else {
                    setup_t[ui].push_back(ss * scale);
                    run_t[ui].push_back(rs * scale);
                    setup_raw_t[ui].push_back(ss);
                    run_raw_t[ui].push_back(rs);
                }
                if (first) {
                    hashes[ui] = o.hash48;
                    work[ui] = o.work;
                } else if (o.hash48 != hashes[ui]) {
                    o.errors.push_back("instance " + std::to_string(i) +
                                       ": pass result differs from pass 0");
                }
                attempted += o.attempted;
                failed += o.errors.size();
                for (const std::string& e : o.errors)
                    std::fprintf(stderr, "perfbench: check failed: %s\n",
                                 e.c_str());
            } catch (const std::exception& e) {
                ++attempted;
                ++failed;
                std::fprintf(stderr, "perfbench: instance %d: %s\n", i,
                             e.what());
            }
        }
        if (traced) {
            vnpu::obs::set_profiler(nullptr);
            ++traced_passes;
        }
        last_pass_s = seconds_since(pass_t0);
        const double elapsed = seconds_since(start);
        if (passes + 1 >= min_passes(a.trace) && elapsed + last_pass_s > a.seconds)
            break;
    }
    ++passes;

    Fnv combined;
    for (std::uint64_t h : hashes)
        combined.mix(h);
    const std::uint64_t hash48 = combined.hash48();

    // One set-up is one instance's; the run is the whole pass.
    const double setup_raw = median(instance_medians(setup_raw_t));
    const double run_raw = pass_time(run_raw_t);
    // Throughput: the median instance's work rate.
    std::vector<double> rates;
    const std::vector<double> run_med = instance_medians(run_t);
    for (std::size_t i = 0; i < run_med.size(); ++i)
        rates.push_back(work[i] / run_med[i]);

    Metrics m;
    if (!a.trace) {
        // Host seconds at the reference host's speed (calib.h).
        m.set("setup_s", median(instance_medians(setup_t)), "s");
        m.set("run_s", pass_time(run_t), "s");
        m.set("work_per_s", median(rates), "1/s");
        m.set("peak_rss_mb", median(peak_rss_mb), "MB");
        w->sim_metrics(m);
    } else {
        w->layer_metrics(m, traced_passes);
        const vnpu::obs::Profiler::Report rep = prof.report();
        const double tp = traced_passes > 0 ? traced_passes : 1;
        for (const char* scope : kProfScopes) {
            double self_s = 0.0;
            for (const auto& site : rep.sites)
                if (site.name == scope)
                    self_s = static_cast<double>(site.excl_ns) * 1e-9 / tp;
            m.set(std::string("prof.") + scope + ".self_s", self_s, "s");
        }
        const double traced_raw = pass_time(traced_run_raw_t);
        m.set("trace.overhead_s", traced_raw - run_raw, "s");
        m.set("host.setup_s_raw", setup_raw, "s");
        m.set("host.run_s_raw", run_raw, "s");
        m.set("host.calib_s", median(calib), "s");
    }
    std::fprintf(stderr,
                 "perfbench: %s seed=%llu passes=%d workers=%d "
                 "ref=%.6fs setup_raw=%.6fs run_raw=%.6fs hash48=%llu\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 passes, workers, median(calib), setup_raw, run_raw,
                 static_cast<unsigned long long>(hash48));
    // A metric that is not a finite number is a broken output.
    Metrics checked;
    for (const auto& [name, vu] : m.all()) {
        const bool finite = std::isfinite(vu.first);
        if (!finite) {
            std::fprintf(stderr, "perfbench: check failed: %s is %g\n",
                         name.c_str(), vu.first);
            ++failed;
        }
        checked.set(name, finite ? vu.first : 0.0, vu.second);
    }
    print_json(failed == 0, attempted, failed, hash48, passes, workers,
               checked);
    return 0;
}
