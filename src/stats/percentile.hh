/**
 * @file
 * Percentile estimation for latency distributions.
 *
 * Exact type-7 quantiles by selection, the rank arithmetic they share
 * with the LC tail (workloads/lc_latency.hh), and a reservoir sampler
 * with bounded memory for very long runs.
 */

#ifndef ADRIAS_STATS_PERCENTILE_HH
#define ADRIAS_STATS_PERCENTILE_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/rng.hh"

namespace adrias::stats
{

/**
 * Where the type-7 q-quantile of n sorted values is read: order
 * statistics `lo` and `hi` (0-based, hi = lo or lo + 1), combined as
 * `x[lo] + frac * (x[hi] - x[lo])`.
 */
struct QuantileRank
{
    std::size_t lo;
    std::size_t hi;
    double frac;
};

/** @return the QuantileRank of q over n > 0 values; q must be valid. */
QuantileRank quantileRank(double q, std::size_t n);

/**
 * Fatal unless every q lies in the closed interval [0, 1] (NaN
 * included) and the qs ascend.
 */
void checkQuantiles(std::initializer_list<double> qs);

/**
 * Compute the q-quantile of a sample by linear interpolation
 * (type-7, the numpy/R default).
 *
 * O(n): the two order statistics the interpolation needs are found by
 * selection (std::nth_element, then the minimum above it), not by a
 * sort.  The result is bitwise the one a full sort gives, with one
 * caveat: elements that compare equal but differ in bits — +0.0 and
 * -0.0 — may land in either order, so a sample holding both zeros can
 * return the other zero's sign.  NaN elements have no defined order,
 * with a sort or without.
 *
 * @param values sample (copied and partially reordered internally).
 * @param q quantile in [0, 1]; e.g. 0.99 for the 99th percentile.
 *        Anything outside the closed interval — including NaN — is a
 *        caller bug and throws (fatal), even for an empty sample.
 * @return interpolated quantile; NaN for an empty sample.
 */
double quantile(std::vector<double> values, double q);

/**
 * quantile() at each of `qs` from one copy of the sample: each q
 * selects only among the elements above the previous one's position.
 *
 * @param qs quantiles in [0, 1], ascending; anything else is fatal.
 * @return one result per q, in order; NaN each for an empty sample.
 */
std::vector<double> quantiles(std::vector<double> values,
                              std::initializer_list<double> qs);

/**
 * Bounded-memory quantile estimator using reservoir sampling
 * (Vitter's algorithm R).
 *
 * Semantics: the first `capacity` observations fill the reservoir
 * directly.  Observation number n > capacity (1-based) draws a slot
 * uniformly from {0, ..., n-1} — `rng.uniformInt(0, seen - 1)` with
 * *inclusive* bounds, after `seen` has been advanced — and replaces
 * `reservoir[slot]` only when slot < capacity.  The replacement
 * probability is therefore exactly capacity/n, which by induction
 * keeps every observation retained with equal probability capacity/n.
 * The Rng's uniformInt uses rejection sampling, so no modulo bias
 * skews the slot choice.  Replacement decisions are driven entirely by
 * the seeded Rng: one (seed, input sequence) pair always yields the
 * same reservoir, making quantiles over it reproducible.
 */
class ReservoirSampler
{
  public:
    /**
     * @param capacity number of retained samples (> 0).
     * @param seed RNG seed for replacement decisions.
     */
    explicit ReservoirSampler(std::size_t capacity,
                              std::uint64_t seed = 12345);

    /** Offer one observation to the reservoir. */
    void add(double value);

    /** @return estimated q-quantile from the reservoir contents. */
    double quantile(double q) const;

    /** @return total observations offered (not retained). */
    std::size_t count() const { return seen; }

  private:
    std::size_t cap;
    std::size_t seen = 0;
    std::vector<double> reservoir;
    Rng rng;
};

} // namespace adrias::stats

#endif // ADRIAS_STATS_PERCENTILE_HH
