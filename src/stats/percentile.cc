#include "stats/percentile.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace adrias::stats
{

QuantileRank
quantileRank(double q, std::size_t n)
{
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    return {lo, hi, pos - static_cast<double>(lo)};
}

void
checkQuantiles(std::initializer_list<double> qs)
{
    // The NaN check must be explicit: NaN compares false against both
    // bounds, and would otherwise flow into quantileRank's floor/size_t
    // cast — undefined behaviour, not merely a wrong answer.
    double prev = 0.0;
    for (double q : qs) {
        if (!(q >= 0.0 && q <= 1.0))
            fatal("quantile: q must lie in [0, 1]");
        if (q < prev)
            fatal("quantiles: q values must be ascending");
        prev = q;
    }
}

std::vector<double>
quantiles(std::vector<double> values, std::initializer_list<double> qs)
{
    // Validate q before the empty-sample early-out so a caller bug is
    // reported even when there happens to be no data yet.
    checkQuantiles(qs);
    std::vector<double> out;
    out.reserve(qs.size());
    if (values.empty()) {
        out.assign(qs.size(), std::numeric_limits<double>::quiet_NaN());
        return out;
    }
    if (values.size() == 1) {
        out.assign(qs.size(), values.front());
        return out;
    }
    // Selection instead of a sort: values[lo] is the lo-th order
    // statistic after nth_element, and the (lo+1)-th is the smallest
    // element above it.  Each later q selects only among the elements
    // above the previous lo, since the qs are ascending.
    const auto first = values.begin();
    std::size_t from = 0;
    for (double q : qs) {
        const auto [lo, hi, frac] = quantileRank(q, values.size());
        if (lo >= from) {
            std::nth_element(first + static_cast<std::ptrdiff_t>(from),
                             first + static_cast<std::ptrdiff_t>(lo),
                             values.end());
            from = lo + 1;
        }
        const double at_lo = values[lo];
        const double at_hi =
            hi == lo ? at_lo
                     : *std::min_element(
                           first + static_cast<std::ptrdiff_t>(lo + 1),
                           values.end());
        out.push_back(at_lo + frac * (at_hi - at_lo));
    }
    return out;
}

double
quantile(std::vector<double> values, double q)
{
    return quantiles(std::move(values), {q}).front();
}

ReservoirSampler::ReservoirSampler(std::size_t capacity, std::uint64_t seed)
    : cap(capacity), rng(seed)
{
    if (capacity == 0)
        fatal("ReservoirSampler capacity must be positive");
    reservoir.reserve(capacity);
}

void
ReservoirSampler::add(double value)
{
    ++seen;
    if (reservoir.size() < cap) {
        reservoir.push_back(value);
        return;
    }
    // Algorithm R: this is observation number `seen` (1-based), so the
    // slot draw must cover {0, ..., seen-1} *inclusive* — uniformInt's
    // closed upper bound is load-bearing.  P(slot < cap) = cap/seen,
    // the textbook replacement probability; excluding the bound (or
    // drawing before ++seen) would over-retain late observations.
    const auto slot = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(seen - 1)));
    if (slot < cap)
        reservoir[slot] = value;
}

double
ReservoirSampler::quantile(double q) const
{
    return stats::quantile(reservoir, q);
}

} // namespace adrias::stats
