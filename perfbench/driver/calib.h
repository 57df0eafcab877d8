/**
 * @file
 * Host-speed reference: a fixed loop that belongs to the benchmark, not
 * to the simulator, so no change to the simulator can move it. Its time
 * tracks how fast this host runs right now; the driver scales host
 * times by it (README.md, "Host drift").
 */

#ifndef PERFBENCH_CALIB_H
#define PERFBENCH_CALIB_H

namespace perfbench {

/**
 * The reference loop's time on the host the bounds were set on: an
 * Intel Xeon (Sapphire Rapids class) KVM guest with 4 vCPUs.
 */
constexpr double kRefSeconds = 0.0125;

/**
 * Host times scale by (kRefSeconds / measured)^kRefExponent. Fitted on
 * two drift traces of the reference host: the simulator slows about
 * twice as much, in relative terms, as the loop does.
 */
constexpr double kRefExponent = 2.0;

/**
 * Run the reference loop once, a serial xorshift + popcount chain with
 * no memory traffic; returns its wall time in seconds.
 */
double reference_sample();

} // namespace perfbench

#endif // PERFBENCH_CALIB_H
