/**
 * @file
 * Correlation coefficients for the metric-affinity analysis (Fig. 6):
 * Pearson's r between low-level system metrics and application
 * performance, plus fractional ranks for rank-based variants.
 */

#ifndef ADRIAS_STATS_CORRELATION_HH
#define ADRIAS_STATS_CORRELATION_HH

#include <vector>

namespace adrias::stats
{

/**
 * Pearson's linear correlation coefficient.
 *
 * @return r in [-1, 1]; 0 when either input has zero variance.
 * @pre x.size() == y.size() and size >= 2.
 */
double pearson(const std::vector<double> &x, const std::vector<double> &y);

/**
 * Fractional ranks of a sample (average rank for ties), 1-based.
 * Exposed for testing.
 */
std::vector<double> fractionalRanks(const std::vector<double> &values);

} // namespace adrias::stats

#endif // ADRIAS_STATS_CORRELATION_HH
