/**
 * @file
 * fleet_frag: an open-loop Poisson stream in simulated time feeds four
 * 32x32 devices. First-fit placement, mean gap 2000 ticks (about 0.75
 * offered load, the fragmentation-bound point of docs/fleet.md),
 * defragmentation on. Confined-route builds dominate host time here;
 * the similar funnel and the event loop are nearly idle.
 */

#include <memory>

#include "check/checks.h"
#include "fleet/scheduler.h"
#include "sim/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using vnpu::fleet::FleetConfig;
using vnpu::fleet::FleetSimulator;

/** Decisions made during set-up: about three mean tenant lifetimes at
 *  the workload's arrival rate, after which occupancy is steady. */
constexpr std::size_t kWarmupDecisions = 200;

/** Admission-wait limit: eight times the median wait (one admission
 *  service, ~250 ticks, when nothing queues). */
constexpr double kAdmitLimitTicks = 2000.0;

class FleetFrag final : public Workload {
  public:
    FleetFrag(std::uint64_t seed, const Sizing& size) : size_(size)
    {
        for (int i = 0; i < size_.instances; ++i)
            seeds_.push_back(vnpu::Rng::substream(seed, 0xF1EE7 + i).next());
    }

    int num_instances() const override { return size_.instances; }

    void
    setup(int i, bool traced) override
    {
        FleetConfig cfg;
        cfg.num_devices = 4;
        cfg.device = vnpu::SocConfig::Sim();
        cfg.device.mesh_x = 32;
        cfg.device.mesh_y = 32;
        cfg.device.hbm_channels = 32;
        // Region^2 route tables of the 256-core gpt2-l tenants need
        // ~128 KiB of meta zone (bench/sweep_fleet.cpp, docs/fleet.md).
        cfg.device.meta_zone_bytes = 256 * 1024;
        cfg.seed = seeds_[static_cast<std::size_t>(i)];
        cfg.policy = vnpu::fleet::PlacementPolicy::kFirstFit;
        cfg.arrival.model = vnpu::fleet::ArrivalModel::kPoisson;
        // Offered load ~0.93 (docs/fleet.md): refusals are common enough
        // to measure, while the median admission wait still sits at one
        // service time (README.md).
        cfg.arrival.mean_gap = 1600;
        cfg.max_arrivals =
            kWarmupDecisions + static_cast<std::uint64_t>(size_.ops);
        cfg.defrag = true;
        sim_ = std::make_unique<FleetSimulator>(cfg);
        // Warm-up: fill the devices to their steady-state occupancy.
        while (sim_->decisions().size() < kWarmupDecisions &&
               step_.time(traced, [&] { return sim_->step(); })) {
        }
        warm_decisions_ = sim_->decisions().size();
    }

    void
    run(int, bool traced) override
    {
        while (step_.time(traced, [&] { return sim_->step(); })) {
        }
    }

    InstanceOutcome
    finish(int, bool first) override
    {
        InstanceOutcome o;
        const auto& st = sim_->stats();
        o.attempted = sim_->decisions().size();
        o.work = static_cast<double>(o.attempted - warm_decisions_);
        o.hash48 = sim_->decision_hash48();
        if (st.admitted.value() + st.rejected.value() != st.arrivals.value())
            o.errors.push_back("fleet: admitted + rejected != arrivals");
        verify_partitions(o);
        if (first)
            absorb();
        sim_.reset();
        return o;
    }

    void
    sim_metrics(Metrics& out) const override
    {
        out.set("sim_util_mean", util_sum_ / size_.instances, "ratio");
        out.set("sim_p50_ticks", percentile(waits_, 0.50), "ticks");
        // p99 sits on the patience cliff (requests admitted just before
        // queue_timeout) and jumps between two values from seed to seed.
        out.set("sim_tail_ticks", percentile(waits_, 0.95), "ticks");
        out.set("sim_tail_samples", static_cast<double>(waits_.size()),
                "count");
        // A request admitted after the admission limit counts as
        // refused: refusals alone come in a few long bursts behind a
        // blocked queue head and swing from seed to seed (README.md).
        out.set("sim_reject_ratio", missed_ / arrivals_, "ratio");
        out.set("sim_fps", admitted_ / sim_seconds_, "1/s");
    }

    void
    layer_metrics(Metrics& out, int traced_passes) const override
    {
        span_metrics(out, "fleet.step", step_, traced_passes);
        const auto get = [&](const char* k) {
            auto it = fleet_.find(k);
            return it == fleet_.end() ? 0.0 : it->second;
        };
        out.set("fleet.admitted", get("fleet.admitted"), "count");
        out.set("fleet.rejected", get("fleet.rejected"), "count");
        out.set("fleet.migrations", get("fleet.migrations"), "count");
        out.set("fleet.preemptions", get("fleet.preemptions"), "count");
        out.set("fleet.queue.depth_mean",
                get("fleet.queue.depth_mean") / size_.instances, "requests");
        const double attempts = get("fleet.defrag.attempts");
        out.set("fleet.defrag.success_ratio",
                attempts > 0 ? get("fleet.defrag.success") / attempts : 0.0,
                "ratio");
        out.set("hyp.mean_ted", ted_.mean(), "ted");
        hyp_counter_metrics(out, hyp_);
    }

  private:
    /** check::verify_vm_partition over every device's live VMs. */
    void
    verify_partitions(InstanceOutcome& o) const
    {
        std::vector<std::vector<vnpu::CoreSet>> regions(
            static_cast<std::size_t>(sim_->num_devices()));
        for (const auto& [dev, vm] : sim_->live_vms()) {
            const vnpu::virt::VirtualNpu* v =
                sim_->device(dev).hypervisor().find(vm);
            if (v == nullptr) {
                o.errors.push_back("fleet: live VM missing from device");
                continue;
            }
            regions[static_cast<std::size_t>(dev)].push_back(v->mask());
        }
        for (int d = 0; d < sim_->num_devices(); ++d) {
            try {
                vnpu::check::verify_vm_partition(
                    sim_->device(d).hypervisor().free_cores(),
                    regions[static_cast<std::size_t>(d)],
                    sim_->device(d).num_cores());
            } catch (const std::exception& e) {
                o.errors.push_back(e.what());
            }
        }
    }

    void
    absorb()
    {
        const auto& st = sim_->stats();
        util_sum_ += sim_->utilization_mean();
        for (const auto& d : sim_->decisions()) {
            if (!d.admitted)
                continue;
            const double wait = static_cast<double>(d.decided - d.arrival);
            waits_.push_back(wait);
            missed_ += wait > kAdmitLimitTicks ? 1.0 : 0.0;
        }
        ted_.merge(st.realized_ted);
        arrivals_ += static_cast<double>(st.arrivals.value());
        missed_ += static_cast<double>(st.rejected.value());
        admitted_ += static_cast<double>(st.admitted.value());
        sim_seconds_ += sim_->config().device.seconds(sim_->now());
        vnpu::StatSet s;
        sim_->collect_stats(s);
        for (const auto& [k, v] : s.all())
            fleet_[k] += v;
        vnpu::StatSet h;
        for (int d = 0; d < sim_->num_devices(); ++d)
            sim_->device(d).hypervisor().collect_stats(h);
        fold_hyp_stats(h, hyp_);
    }

    Sizing size_;
    std::vector<std::uint64_t> seeds_;
    std::unique_ptr<FleetSimulator> sim_;
    std::size_t warm_decisions_ = 0;
    Span step_;
    double util_sum_ = 0.0;
    std::vector<double> waits_;
    vnpu::Histogram ted_;
    double arrivals_ = 0.0;
    double missed_ = 0.0; ///< Rejected or admitted after the limit.
    double admitted_ = 0.0;
    double sim_seconds_ = 0.0;
    std::map<std::string, double> fleet_;
    std::map<std::string, double> hyp_;
};

} // namespace

std::unique_ptr<Workload>
make_fleet_frag(std::uint64_t seed, const Sizing& size)
{
    return std::make_unique<FleetFrag>(seed, size);
}

} // namespace perfbench
