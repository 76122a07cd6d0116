#include "stats/distribution.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/table.hh"
#include "stats/percentile.hh"

namespace adrias::stats
{

DistributionSummary
DistributionSummary::from(const std::vector<double> &values)
{
    DistributionSummary s;
    if (values.empty()) {
        // All order statistics of an empty sample are NaN (rendered as
        // "n/a" by formatDouble), matching quantile() and mean().
        const double nan = std::numeric_limits<double>::quiet_NaN();
        s.min = s.p25 = s.median = s.p75 = s.p95 = s.p99 = nan;
        s.max = s.mean = nan;
        return s;
    }
    s.count = values.size();
    s.min = *std::min_element(values.begin(), values.end());
    s.max = *std::max_element(values.begin(), values.end());
    s.p25 = quantile(values, 0.25);
    s.median = quantile(values, 0.50);
    s.p75 = quantile(values, 0.75);
    s.p95 = quantile(values, 0.95);
    s.p99 = quantile(values, 0.99);
    double total = 0.0;
    for (double v : values)
        total += v;
    s.mean = total / static_cast<double>(values.size());
    return s;
}

std::string
DistributionSummary::toString() const
{
    std::ostringstream out;
    out << "n=" << count << " min=" << formatDouble(min, 2)
        << " p25=" << formatDouble(p25, 2)
        << " med=" << formatDouble(median, 2)
        << " p75=" << formatDouble(p75, 2)
        << " p95=" << formatDouble(p95, 2)
        << " max=" << formatDouble(max, 2)
        << " mean=" << formatDouble(mean, 2);
    return out.str();
}

} // namespace adrias::stats
