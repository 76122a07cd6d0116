/**
 * @file
 * Correlation coefficients for the metric-affinity analysis (Fig. 6):
 * Pearson's r between low-level system metrics and application
 * performance.
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

} // namespace adrias::stats

#endif // ADRIAS_STATS_CORRELATION_HH
