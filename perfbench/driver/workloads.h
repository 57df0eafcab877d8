/**
 * @file
 * The benchmark's workloads (perfbench/README.md explains the choice of
 * each) and the layer counters they share.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <memory>
#include <string>

#include "bench.h"

namespace perfbench {

/** How much simulated work one pass holds. Fixed per workload, so the
 *  simulated metrics are a pure function of the seed. */
struct Sizing {
    int instances = 1; ///< Independent sub-seeded instances per pass.
    int ops = 0;       ///< Measured arrivals / requests per instance.
    int iterations = 0; ///< Inference iterations per tenant.
};

std::unique_ptr<Workload> make_fleet_frag(std::uint64_t seed,
                                          const Sizing& size);
std::unique_ptr<Workload> make_admit_similar(std::uint64_t seed,
                                             const Sizing& size);
std::unique_ptr<Workload> make_tenant_serve(std::uint64_t seed,
                                            const Sizing& size);

/** `hyp.*` counters, summed over every hypervisor of a pass. */
inline void
hyp_counter_metrics(Metrics& out, const std::map<std::string, double>& hyp)
{
    const auto get = [&](const char* k) {
        auto it = hyp.find(k);
        return it == hyp.end() ? 0.0 : it->second;
    };
    for (const char* k :
         {"hyp.route_cache.hits", "hyp.route_cache.misses",
          "hyp.route_cache.evictions", "hyp.mapper.search_steps",
          "hyp.mapper.budget_exhausted", "hyp.funnel.candidates",
          "hyp.funnel.lb_pruned", "hyp.funnel.memo_hits",
          "hyp.funnel.ted0_hits", "hyp.funnel.full_ged"})
        out.set(k, get(k), "count");
    out.set("hyp.setup_cycles", get("hyp.setup_cycles"), "cycles");
    const double cands = get("hyp.funnel.candidates");
    out.set("hyp.funnel.full_ged_ratio",
            cands > 0 ? get("hyp.funnel.full_ged") / cands : 0.0, "ratio");
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
