/**
 * @file
 * tenant_serve: one 32x32 chip filled with exact-mapped model-zoo
 * tenants in the fleet-mix shapes. Every tenant runs K inference
 * iterations concurrently under vChunk translation and confined
 * routing. The event loop dominates host time, and every NoC hop reads
 * the route tables the other two workloads build.
 */

#include <map>
#include <memory>

#include "fleet/arrival.h"
#include "hyp/hypervisor.h"
#include "runtime/launcher.h"
#include "runtime/machine.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "workload/model_zoo.h"
#include "workloads.h"

namespace perfbench {

namespace {

/** Consecutive exact-map rejections that end the exact fill. */
constexpr int kFillPatience = 8;

class TenantServe final : public Workload {
  public:
    TenantServe(std::uint64_t seed, const Sizing& size) : size_(size)
    {
        for (int i = 0; i < size_.instances; ++i)
            seeds_.push_back(vnpu::Rng::substream(seed, 0x7E4A + i).next());
        cfg_ = vnpu::SocConfig::Sim();
        cfg_.mesh_x = 32;
        cfg_.mesh_y = 32;
        cfg_.hbm_channels = 32;
        cfg_.meta_zone_bytes = 256 * 1024;
        for (const auto& c : vnpu::fleet::default_tenant_mix())
            models_.emplace(c.model, vnpu::workload::by_name(c.model));
    }

    int num_instances() const override { return size_.instances; }

    void
    setup(int i, bool traced) override
    {
        release();
        cur_ = {};
        machine_ = machine_ctor_.time(traced, [&] {
            return std::make_unique<vnpu::runtime::Machine>(cfg_);
        });
        hv_ = std::make_unique<vnpu::hyp::Hypervisor>(
            machine_->config(), machine_->topology(), machine_->controller());
        fill(seeds_[static_cast<std::size_t>(i)], traced);
        launcher_ = std::make_unique<vnpu::runtime::WorkloadLauncher>(*machine_);
        vnpu::runtime::LaunchOptions opt;
        opt.iterations = size_.iterations;
        for (Tenant& t : tenants_) {
            const vnpu::virt::VirtualNpu* v = hv_->find(t.vm);
            const vnpu::workload::Model& model = models_.at(t.model);
            t.run = load_.time(traced,
                               [&] { return launcher_->load(*v, model, opt); });
        }
    }

    void
    run(int, bool traced) override
    {
        machine_run_.time(traced, [&] { return machine_->run(); });
    }

    InstanceOutcome
    finish(int, bool first) override
    {
        InstanceOutcome o;
        o.attempted = cur_.creates + tenants_.size();
        Fnv fp;
        double fps = 0.0;
        double flops_util = 0.0;
        int cores = 0;
        double ted = 0.0;
        for (const Tenant& t : tenants_) {
            const vnpu::runtime::LaunchResult r = launcher_->collect(t.run);
            if (r.iterations != static_cast<std::uint64_t>(size_.iterations))
                o.errors.push_back("tenant_serve: tenant " + t.model +
                                   " did not finish its iterations");
            const int n = static_cast<int>(t.run.cores.size());
            fps += r.fps;
            flops_util += r.flops_utilization * n;
            cores += n;
            ted += r.mapping_ted;
            fp.mix(static_cast<std::uint64_t>(t.vm));
            fp.mix(r.makespan);
            fp.mix(r.flops);
            fp.mix_double(r.fps);
        }
        vnpu::StatSet s;
        machine_->collect_stats(s);
        if (s.get("noc.interference_links", -1.0) != 0.0)
            o.errors.push_back("tenant_serve: NoC links shared by tenants");
        const double events = s.get("sim.events_executed");
        fp.mix(static_cast<std::uint64_t>(events));
        fp.mix(static_cast<std::uint64_t>(s.get("noc.messages")));
        o.work = events;
        o.hash48 = fp.hash48();
        if (first) {
            fps_sum_ += fps;
            util_sum_ += cores > 0 ? flops_util / cores : 0.0;
            creates_ += static_cast<double>(cur_.creates);
            rejects_ += static_cast<double>(cur_.rejects);
            ted_sum_ += ted;
            tenants_total_ += static_cast<double>(tenants_.size());
            latency_.merge(machine_->network().stats().msg_latency);
            for (const auto& [k, v] : s.all())
                machine_stats_[k] += v;
            vnpu::StatSet h;
            hv_->collect_stats(h);
            fold_hyp_stats(h, hyp_);
        }
        release();
        return o;
    }

    void
    sim_metrics(Metrics& out) const override
    {
        const double n = size_.instances;
        out.set("sim_util_mean", util_sum_ / n, "ratio");
        out.set("sim_p50_ticks", latency_.quantile(0.50), "ticks");
        out.set("sim_tail_ticks", latency_.quantile(0.99), "ticks");
        out.set("sim_tail_samples", static_cast<double>(latency_.count()),
                "count");
        out.set("sim_reject_ratio", rejects_ / creates_, "ratio");
        out.set("sim_fps", fps_sum_ / n, "1/s");
    }

    void
    layer_metrics(Metrics& out, int traced_passes) const override
    {
        const double n = traced_passes > 0 ? traced_passes : 1;
        const auto get = [&](const char* k) {
            auto it = machine_stats_.find(k);
            return it == machine_stats_.end() ? 0.0 : it->second;
        };
        out.set("noc.messages", get("noc.messages"), "count");
        out.set("noc.packets", get("noc.packets"), "count");
        out.set("noc.msg_latency.p99", latency_.quantile(0.99), "ticks");
        out.set("noc.interference_links", get("noc.interference_links"),
                "count");
        out.set("sim.events_executed", get("sim.events_executed"), "count");
        out.set("sim.busy_ticks", get("sim.busy_ticks"), "ticks");
        for (const char* k : {"mem.dma.transfers", "core.instructions"})
            out.set(k, get(k), "count");
        out.set("mem.dma.bytes", get("mem.dma.bytes"), "bytes");
        for (const char* k :
             {"mem.dma.translation_stall", "mem.dma.throttle_stall",
              "core.busy_compute", "core.busy_dma", "core.busy_send",
              "core.wait_recv", "core.vrouter_cycles"})
            out.set(k, get(k), "cycles");
        const double run_s = machine_run_.busy_s / n;
        out.set("sim.run_s", run_s, "s");
        const double events = get("sim.events_executed");
        out.set("sim.host_ns_per_event", events > 0 ? run_s * 1e9 / events : 0.0,
                "ns");
        out.set("runtime.machine_ctor_s", machine_ctor_.busy_s / n, "s");
        out.set("runtime.load.busy_s", load_.busy_s / n, "s");
        span_metrics(out, "hyp.create_ok", create_ok_, traced_passes);
        span_metrics(out, "hyp.create_fail", create_fail_, traced_passes);
        out.set("hyp.mean_ted", ted_sum_ / tenants_total_, "ted");
        hyp_counter_metrics(out, hyp_);
    }

  private:
    /** Drop the instance, users before what they reference. */
    void
    release()
    {
        tenants_.clear();
        launcher_.reset();
        hv_.reset();
        machine_.reset();
    }

    struct Tenant {
        vnpu::VmId vm = vnpu::kNoVm;
        std::string model;
        vnpu::runtime::LoadedRun run;
    };

    /** Try to admit one `w` x `h` tenant of `model`; false if rejected. */
    bool
    admit(const std::string& model, int w, int h, bool traced)
    {
        vnpu::hyp::VnpuSpec spec;
        spec.topo = vnpu::graph::Graph::mesh(w, h);
        spec.strategy = vnpu::hyp::MappingStrategy::kExact;
        // The whole HBM shared in proportion to cores (buddy blocks).
        spec.memory_bytes = static_cast<std::uint64_t>(w * h) << 26;
        ++cur_.creates;
        const Clock::time_point t0 = Clock::now();
        try {
            vnpu::virt::VirtualNpu& v = hv_->create(spec);
            if (traced)
                create_ok_.add(seconds_since(t0));
            tenants_.push_back({v.vm(), model, {}});
            return true;
        } catch (const vnpu::SimFatal&) {
            // A modelled rejection, not a failed operation.
            if (traced)
                create_fail_.add(seconds_since(t0));
            ++cur_.rejects;
            return false;
        }
    }

    /**
     * Draw fleet-mix tenants by weight until kFillPatience draws in a
     * row are rejected, then pack 2x2 tenants until none fits: the chip
     * ends full.
     */
    void
    fill(std::uint64_t seed, bool traced)
    {
        const auto& mix = vnpu::fleet::default_tenant_mix();
        double total = 0.0;
        for (const auto& c : mix)
            total += c.weight;
        vnpu::Rng rng(seed);
        for (int misses = 0; misses < kFillPatience;) {
            double u = rng.next_double() * total;
            std::size_t k = 0;
            while (k + 1 < mix.size() && u >= mix[k].weight) {
                u -= mix[k].weight;
                ++k;
            }
            const auto& c = mix[k];
            misses = admit(c.model, c.width, c.height, traced) ? 0
                                                                : misses + 1;
        }
        while (admit("mobilenet", 2, 2, traced)) {
        }
    }

    struct Current {
        std::uint64_t creates = 0;
        std::uint64_t rejects = 0;
    };

    Sizing size_;
    vnpu::SocConfig cfg_;
    std::vector<std::uint64_t> seeds_;
    std::unique_ptr<vnpu::runtime::Machine> machine_;
    std::unique_ptr<vnpu::hyp::Hypervisor> hv_;
    std::unique_ptr<vnpu::runtime::WorkloadLauncher> launcher_;
    std::map<std::string, vnpu::workload::Model> models_;
    std::vector<Tenant> tenants_;
    Current cur_;
    Span machine_ctor_;
    Span load_;
    Span machine_run_;
    Span create_ok_;
    Span create_fail_;
    double fps_sum_ = 0.0;
    double util_sum_ = 0.0;
    double creates_ = 0.0;
    double rejects_ = 0.0;
    double ted_sum_ = 0.0;
    double tenants_total_ = 0.0;
    vnpu::Histogram latency_;
    std::map<std::string, double> machine_stats_;
    std::map<std::string, double> hyp_;
};

} // namespace

std::unique_ptr<Workload>
make_tenant_serve(std::uint64_t seed, const Sizing& size)
{
    return std::make_unique<TenantServe>(seed, size);
}

} // namespace perfbench
