/**
 * @file
 * The latency-critical request-latency model and its exact tail.
 *
 * An LC instance draws kLcSamplesPerTick request latencies per tick.
 * Sample j of tick t is `scale[t] * exp(sigma * g_j - sigma^2 / 2)`,
 * where `scale[t]` is the tick's noiseless latency (base latency,
 * slowdown and queueing inflation) and g_0, g_1, ... are the standard
 * normal variates of `Rng(seed).gaussian()`.  Every sample is
 * therefore a pure function of (seed, scales), so an instance keeps
 * those two and never materializes its samples.
 *
 * lcLatencyTail() returns exactly what `stats::quantiles` over every
 * sample would, bit for bit, while evaluating only the Box-Muller
 * pairs that can reach the tail (DESIGN.md §4).
 */

#ifndef ADRIAS_WORKLOADS_LC_LATENCY_HH
#define ADRIAS_WORKLOADS_LC_LATENCY_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace adrias::workloads
{

/** Request-latency samples one LC tick draws (an even number, so
 *  every tick starts on a Box-Muller pair). */
inline constexpr std::size_t kLcSamplesPerTick = 24;

/** Tail percentiles of an LC run and the work it took to find them. */
struct LatencyTail
{
    /** One quantile per requested q, ms; NaN each with no samples. */
    std::vector<double> ms;

    /** Box-Muller pairs behind the run's samples. */
    std::size_t pairs = 0;

    /** Pairs evaluated in full (cos/sin and both exps). */
    std::size_t exactPairs = 0;
};

/**
 * The type-7 quantiles of every sample of the run (seed, scales), bit
 * for bit what `stats::quantiles` over the drawn samples returns.
 *
 * @param seed latency-noise seed of the instance.
 * @param scales per-tick noiseless latency, ms (finite, >= 0).
 * @param sigma lognormal shape of the noise.
 * @param qs quantiles in [0, 1], ascending; anything else is fatal.
 */
LatencyTail lcLatencyTail(std::uint64_t seed,
                          const std::vector<double> &scales, double sigma,
                          std::initializer_list<double> qs);

} // namespace adrias::workloads

#endif // ADRIAS_WORKLOADS_LC_LATENCY_HH
