/**
 * @file
 * Distribution summary used by benches that reproduce the paper's
 * box/violin-style distribution figures (Figs. 9, 10, 16).
 */

#ifndef ADRIAS_STATS_DISTRIBUTION_HH
#define ADRIAS_STATS_DISTRIBUTION_HH

#include <cstddef>
#include <string>
#include <vector>

namespace adrias::stats
{

/**
 * Five-number-plus summary of a sample: min, p25, median, p75, p95,
 * p99, max and mean.  This is the unit benches print per box plot.
 */
struct DistributionSummary
{
    std::size_t count = 0;
    double min = 0.0;
    double p25 = 0.0;
    double median = 0.0;
    double p75 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
    double mean = 0.0;

    /**
     * Compute from a sample.  An empty sample yields count == 0 and
     * NaN for every statistic — "no data" must never read as 0.0.
     */
    static DistributionSummary from(const std::vector<double> &values);

    /** One-line rendering for bench tables. */
    std::string toString() const;
};

} // namespace adrias::stats

#endif // ADRIAS_STATS_DISTRIBUTION_HH
