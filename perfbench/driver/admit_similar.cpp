/**
 * @file
 * admit_similar: a closed loop on one 32x32 hypervisor issuing
 * create/destroy churn of 8-48-core kSimilarTopology requests, with
 * evict-and-retry on failure (the bench/sweep_alloc_scale.cpp loop).
 * The similar-topology funnel dominates host time; route builds are a
 * few percent and the fleet and event-loop layers are absent.
 */

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "check/checks.h"
#include "fleet/device.h"
#include "sim/log.h"
#include "sim/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using vnpu::VmId;

/** Requests issued during set-up: enough 8-48-core tenants (28 on
 *  average) to fill the empty 1024-core chip. */
constexpr int kWarmupRequests = 40;

class AdmitSimilar final : public Workload {
  public:
    AdmitSimilar(std::uint64_t seed, const Sizing& size) : size_(size)
    {
        for (int i = 0; i < size_.instances; ++i)
            seeds_.push_back(vnpu::Rng::substream(seed, 0xAD017 + i).next());
        cfg_ = vnpu::SocConfig::Sim();
        cfg_.mesh_x = 32;
        cfg_.mesh_y = 32;
        cfg_.hbm_channels = 32;
    }

    int num_instances() const override { return size_.instances; }

    void
    setup(int i, bool traced) override
    {
        const std::uint64_t seed = seeds_[static_cast<std::size_t>(i)];
        dev_ = std::make_unique<vnpu::fleet::FleetDevice>(0, cfg_, seed);
        rng_ = vnpu::Rng(seed);
        sizes_.clear();
        next_size_ = 0;
        live_.clear();
        cur_ = {};
        // Warm-up: the first requests fill the empty chip; the measured
        // churn starts from a full one.
        for (int r = 0; r < kWarmupRequests; ++r)
            request(traced);
    }

    void
    run(int, bool traced) override
    {
        for (int r = 0; r < size_.ops; ++r)
            request(traced);
    }

    InstanceOutcome
    finish(int, bool first) override
    {
        InstanceOutcome o;
        o.attempted = cur_.attempts;
        o.work = static_cast<double>(size_.ops);
        o.hash48 = cur_.fp.hash48();
        std::vector<vnpu::CoreSet> regions;
        for (VmId vm : live_) {
            const vnpu::virt::VirtualNpu* v = dev_->hypervisor().find(vm);
            if (v == nullptr)
                o.errors.push_back("admit_similar: live VM missing");
            else
                regions.push_back(v->mask());
        }
        try {
            vnpu::check::verify_vm_partition(dev_->hypervisor().free_cores(),
                                             regions, dev_->num_cores());
        } catch (const std::exception& e) {
            o.errors.push_back(e.what());
        }
        if (first) {
            requests_ += static_cast<double>(cur_.requests);
            admitted_ += static_cast<double>(cur_.admitted);
            failed_ += static_cast<double>(cur_.failed);
            ted_sum_ += cur_.ted;
            util_sum_ += cur_.util_sum;
            setup_.insert(setup_.end(), cur_.setup.begin(),
                          cur_.setup.end());
            vnpu::StatSet h;
            dev_->hypervisor().collect_stats(h);
            fold_hyp_stats(h, hyp_);
        }
        dev_.reset();
        return o;
    }

    void
    sim_metrics(Metrics& out) const override
    {
        out.set("sim_util_mean", util_sum_ / requests_, "ratio");
        out.set("sim_p50_ticks", percentile(setup_, 0.50), "ticks");
        out.set("sim_tail_ticks", percentile(setup_, 0.90), "ticks");
        out.set("sim_tail_samples", static_cast<double>(setup_.size()),
                "count");
        out.set("sim_reject_ratio", failed_ / requests_, "ratio");
        // Admissions per simulated second of hypervisor provisioning.
        double cycles = 0.0;
        for (double c : setup_)
            cycles += c;
        out.set("sim_fps",
                admitted_ / cfg_.seconds(static_cast<vnpu::Tick>(cycles)),
                "1/s");
    }

    void
    layer_metrics(Metrics& out, int traced_passes) const override
    {
        span_metrics(out, "hyp.create_ok", create_ok_, traced_passes);
        const double n = traced_passes > 0 ? traced_passes : 1;
        span_metrics(out, "hyp.create_fail", create_fail_, traced_passes);
        out.set("hyp.destroy.busy_s", destroy_.busy_s / n, "s");
        out.set("hyp.mean_ted", ted_sum_ / admitted_, "ted");
        hyp_counter_metrics(out, hyp_);
    }

  private:
    /**
     * Request sizes: every size in 8..48 once per shuffled round, so
     * the size mix, and with it the work per pass, does not drift with
     * the seed; the seed sets the order and the churn.
     */
    int
    next_size()
    {
        if (next_size_ == sizes_.size()) {
            sizes_.clear();
            for (int c = 8; c <= 48; ++c)
                sizes_.push_back(c);
            for (std::size_t k = sizes_.size() - 1; k > 0; --k)
                std::swap(sizes_[k], sizes_[rng_.next_below(k + 1)]);
            next_size_ = 0;
        }
        return sizes_[next_size_++];
    }

    /** One closed-loop request: churn, create, evict-and-retry. */
    void
    request(bool traced)
    {
        vnpu::hyp::Hypervisor& hv = dev_->hypervisor();
        const auto destroy_oldest = [&] {
            destroy_.time(traced, [&] { hv.destroy(live_.front()); });
            live_.pop_front();
        };
        const int size = next_size();
        // Churn: every third request, retire the oldest tenant first.
        if (live_.size() >= 3 && rng_.next_below(3) == 0)
            destroy_oldest();
        vnpu::hyp::VnpuSpec spec;
        spec.num_cores = size;
        spec.strategy = vnpu::hyp::MappingStrategy::kSimilarTopology;
        spec.max_candidates = 64;
        // On failure, retire the oldest tenant and retry once: the
        // admission-control loop a serving frontend would run.
        for (int attempt = 0; attempt < 2; ++attempt) {
            ++cur_.attempts;
            const Clock::time_point t0 = Clock::now();
            try {
                vnpu::virt::VirtualNpu& v = hv.create(spec);
                if (traced)
                    create_ok_.add(seconds_since(t0));
                live_.push_back(v.vm());
                ++cur_.admitted;
                cur_.ted += v.mapping_ted();
                cur_.setup.push_back(static_cast<double>(hv.last_setup_cost()));
                cur_.fp.mix(static_cast<std::uint64_t>(v.vm()));
                for (vnpu::CoreId c : v.cores())
                    cur_.fp.mix(static_cast<std::uint64_t>(c));
                cur_.fp.mix_double(v.mapping_ted());
                break;
            } catch (const vnpu::SimFatal&) {
                // A modelled rejection, not a failed operation.
                if (traced)
                    create_fail_.add(seconds_since(t0));
                if (attempt == 1 || live_.empty()) {
                    ++cur_.failed;
                    cur_.fp.mix(~0ULL);
                    break;
                }
                destroy_oldest();
            }
        }
        cur_.util_sum += hv.core_utilization();
        ++cur_.requests;
    }

    /** Per-instance accumulators, folded in on the first pass. */
    struct Current {
        std::uint64_t attempts = 0;
        std::uint64_t requests = 0;
        std::uint64_t admitted = 0;
        std::uint64_t failed = 0;
        double ted = 0.0;
        double util_sum = 0.0;
        std::vector<double> setup;
        Fnv fp;
    };

    Sizing size_;
    vnpu::SocConfig cfg_;
    std::vector<std::uint64_t> seeds_;
    std::unique_ptr<vnpu::fleet::FleetDevice> dev_;
    vnpu::Rng rng_;
    std::vector<int> sizes_;
    std::size_t next_size_ = 0;
    std::deque<VmId> live_;
    Current cur_;
    Span create_ok_;
    Span create_fail_;
    Span destroy_;
    double requests_ = 0.0;
    double admitted_ = 0.0;
    double failed_ = 0.0;
    double ted_sum_ = 0.0;
    double util_sum_ = 0.0;
    std::vector<double> setup_;
    std::map<std::string, double> hyp_;
};

} // namespace

std::unique_ptr<Workload>
make_admit_similar(std::uint64_t seed, const Sizing& size)
{
    return std::make_unique<AdmitSimilar>(seed, size);
}

} // namespace perfbench
