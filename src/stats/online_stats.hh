/**
 * @file
 * Streaming summary statistics (Welford's algorithm).
 */

#ifndef ADRIAS_STATS_ONLINE_STATS_HH
#define ADRIAS_STATS_ONLINE_STATS_HH

#include <cstddef>
#include <limits>

namespace adrias::stats
{

/**
 * Single-pass accumulator for count/mean/variance/min/max.
 *
 * Uses Welford's numerically stable update; safe for long counter
 * streams where naive sum-of-squares would lose precision.
 */
class OnlineStats
{
  public:
    OnlineStats() { reset(); }

    /** Fold one observation into the summary. */
    void add(double value);

    /** Drop all state. */
    void reset();

    /** @return number of observations folded in. */
    std::size_t count() const { return n; }

    /** @return running mean (0 when empty). */
    double mean() const { return n == 0 ? 0.0 : mu; }

    /** @return population variance (0 for n < 2). */
    double variance() const;

    /** @return population standard deviation. */
    double stddev() const;

    /** @return smallest observation (+inf when empty). */
    double min() const { return minValue; }

    /** @return largest observation (-inf when empty). */
    double max() const { return maxValue; }

    /** @return sum of all observations. */
    double sum() const { return mu * static_cast<double>(n); }

  private:
    std::size_t n = 0;
    double mu = 0.0;
    double m2 = 0.0; ///< sum of squared deviations from the mean
    double minValue = std::numeric_limits<double>::infinity();
    double maxValue = -std::numeric_limits<double>::infinity();
};

} // namespace adrias::stats

#endif // ADRIAS_STATS_ONLINE_STATS_HH
