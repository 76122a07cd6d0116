#include "stats/online_stats.hh"

#include <algorithm>
#include <cmath>

namespace adrias::stats
{

void
OnlineStats::add(double value)
{
    ++n;
    const double delta = value - mu;
    mu += delta / static_cast<double>(n);
    m2 += delta * (value - mu);
    minValue = std::min(minValue, value);
    maxValue = std::max(maxValue, value);
}

void
OnlineStats::reset()
{
    n = 0;
    mu = 0.0;
    m2 = 0.0;
    minValue = std::numeric_limits<double>::infinity();
    maxValue = -std::numeric_limits<double>::infinity();
}

double
OnlineStats::variance() const
{
    return n < 2 ? 0.0 : m2 / static_cast<double>(n);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

} // namespace adrias::stats
