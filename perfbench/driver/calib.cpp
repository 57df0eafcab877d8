#include "calib.h"

#include <cstdint>

#include "bench.h"

namespace perfbench {

namespace {

std::uint64_t g_sink = 1;

} // namespace

double
reference_sample()
{
    constexpr int kSteps = 3'000'000;
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = g_sink | 1;
    for (int i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x += static_cast<std::uint64_t>(__builtin_popcountll(x));
    }
    g_sink += x;
    return seconds_since(t0);
}

} // namespace perfbench
