/**
 * @file
 * Shared pieces of the benchmark driver: outside-the-layer spans,
 * metric records, decision fingerprints, and the interface each
 * workload implements.
 *
 * A workload is a fixed list of instances derived from the seed. The
 * driver sets up and runs every instance once per pass and repeats
 * passes until the time budget is spent. Simulated results come from
 * the first pass; every later pass must reproduce them bit for bit.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Nearest-rank percentile of `v` (p in [0, 1]); 0 when empty. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t k = static_cast<std::size_t>(p * static_cast<double>(v.size()));
    if (k >= v.size())
        k = v.size() - 1;
    return v[k];
}

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Wall-clock span around calls into one layer's public functions:
 * call count, busy seconds and per-call samples. Only recorded in
 * traced passes.
 */
struct Span {
    std::uint64_t count = 0;
    double busy_s = 0.0;
    std::vector<double> us;

    void
    add(double s)
    {
        ++count;
        busy_s += s;
        us.push_back(s * 1e6);
    }

    /** Time `f()` into this span when `on`, else just call it. */
    template <class F>
    auto
    time(bool on, F&& f) -> decltype(f())
    {
        if (!on)
            return f();
        const Clock::time_point t0 = Clock::now();
        struct Stop {
            Span& span;
            Clock::time_point t0;
            ~Stop() { span.add(seconds_since(t0)); }
        } stop{*this, t0};
        return f();
    }
};

/** FNV-1a fingerprint of simulated outcomes. */
struct Fnv {
    std::uint64_t h = 1469598103934665603ULL;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffU;
            h *= 1099511628211ULL;
        }
    }

    void
    mix_double(double d)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        mix(bits);
    }

    /** Folded to 48 bits, so it survives a JSON double exactly. */
    std::uint64_t hash48() const { return (h ^ (h >> 48)) & 0xffffffffffffULL; }
};

/** Ordered name -> (value, unit) records. */
class Metrics {
  public:
    void
    set(const std::string& name, double value, const std::string& unit)
    {
        values_[name] = {value, unit};
    }

    const std::map<std::string, std::pair<double, std::string>>&
    all() const
    {
        return values_;
    }

  private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** Outcome bookkeeping of one instance run. */
struct InstanceOutcome {
    std::uint64_t attempted = 0; ///< Operations issued.
    double work = 0.0;           ///< Work units for work_per_s.
    std::uint64_t hash48 = 0;    ///< Fingerprint of the simulated result.
    std::vector<std::string> errors; ///< Failed checks.
};

/**
 * One workload. The driver times setup() and run() from outside and
 * calls finish() after each run; `first` is true on the first pass,
 * which alone feeds the simulated metrics and layer counters.
 */
class Workload {
  public:
    virtual ~Workload() = default;

    virtual int num_instances() const = 0;
    /** Build instance `i` (devices, hypervisors, loaded programs). */
    virtual void setup(int i, bool traced) = 0;
    /** Run instance `i` to completion. */
    virtual void run(int i, bool traced) = 0;
    /** Check instance `i`, fold its results in, and release it. */
    virtual InstanceOutcome finish(int i, bool first) = 0;

    /** Simulated end-to-end metrics (sim_*), from the first pass. */
    virtual void sim_metrics(Metrics& out) const = 0;
    /** Layer spans (per traced pass) and counters (per pass). */
    virtual void layer_metrics(Metrics& out, int traced_passes) const = 0;
};

/** Sum every `fleet.devN.hyp.<x>` and `hyp.<x>` key into `hyp.<x>`. */
inline void
fold_hyp_stats(const vnpu::StatSet& in, std::map<std::string, double>& acc)
{
    for (const auto& [key, value] : in.all()) {
        std::size_t at = std::string::npos;
        if (key.rfind("hyp.", 0) == 0)
            at = 0;
        else if (key.rfind("fleet.dev", 0) == 0)
            at = key.find(".hyp.");
        if (at == std::string::npos)
            continue;
        if (at != 0)
            ++at;
        acc[key.substr(at)] += value;
    }
}

/** Adds the span metrics `<name>.{count,busy_s,us_p50,us_p99}`. */
inline void
span_metrics(Metrics& out, const std::string& name, const Span& s,
             int passes)
{
    const double n = passes > 0 ? passes : 1;
    out.set(name + ".count", static_cast<double>(s.count) / n, "count");
    out.set(name + ".busy_s", s.busy_s / n, "s");
    out.set(name + ".us_p50", percentile(s.us, 0.50), "us");
    out.set(name + ".us_p99", percentile(s.us, 0.99), "us");
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
