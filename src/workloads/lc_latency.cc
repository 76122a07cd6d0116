#include "workloads/lc_latency.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/rng.hh"
#include "stats/percentile.hh"

namespace adrias::workloads
{

namespace
{

constexpr std::size_t kPairsPerTick = kLcSamplesPerTick / 2;

/**
 * Relative slack on a pair's bound.  Visiting pairs by key instead of
 * by bound, and exp() rounding, move a bound by a few ulps at most;
 * this margin is six orders of magnitude wider.
 */
constexpr double kBoundMargin = 1e-9;

/** Fewest pairs sorted by key before the first visit. */
constexpr std::size_t kMinFirstPass = 64;

/** One Box-Muller pair, ordered by the log of its bound. */
struct Candidate
{
    double key;
    std::size_t pair;
};

} // namespace

LatencyTail
lcLatencyTail(std::uint64_t seed, const std::vector<double> &scales,
              double sigma, std::initializer_list<double> qs)
{
    stats::checkQuantiles(qs);
    LatencyTail tail;
    const std::size_t pairs = scales.size() * kPairsPerTick;
    const std::size_t samples = 2 * pairs;
    tail.pairs = pairs;
    if (samples == 0) {
        tail.ms.assign(qs.size(), std::numeric_limits<double>::quiet_NaN());
        return tail;
    }
    if (qs.size() == 0)
        return tail;
    // The smallest q reads order statistic `lo` and above, so only the
    // top `keep` samples matter.
    const std::size_t keep =
        samples - stats::quantileRank(*qs.begin(), samples).lo;

    // Every pair's uniforms, in the stream order gaussian() consumes
    // them.  Both samples of pair p are at most
    // scale * exp(|sigma| R_p - sigma^2 / 2): |g| <= R_p holds in
    // floating point and every later step is monotone.  The key is the
    // log of that bound without the constant term.
    Rng rng(seed);
    std::vector<double> radius(pairs);
    std::vector<double> angle(pairs);
    std::vector<Candidate> order(pairs);
    const double spread = std::fabs(sigma);
    for (std::size_t t = 0; t < scales.size(); ++t) {
        const double log_scale = std::log(scales[t]);
        for (std::size_t k = 0; k < kPairsPerTick; ++k) {
            const std::size_t p = t * kPairsPerTick + k;
            const auto [u1, u2] = rng.boxMullerUniforms();
            radius[p] = boxMullerRadius(u1);
            angle[p] = u2;
            order[p] = {log_scale + spread * radius[p], p};
        }
    }

    // Visit pairs by descending bound into a min-heap of the top
    // `keep` samples; stop once no unvisited pair can beat its minimum.
    // Most runs stop inside the first pass, so only that many keys are
    // sorted up front.
    const auto higher = [](const Candidate &a, const Candidate &b) {
        return a.key > b.key;
    };
    const auto first_pass = static_cast<std::ptrdiff_t>(
        std::min(pairs, std::max(kMinFirstPass, 4 * keep)));
    std::nth_element(order.begin(), order.begin() + first_pass, order.end(),
                     higher);
    std::sort(order.begin(), order.begin() + first_pass, higher);
    const double half_var = 0.5 * sigma * sigma;
    const std::greater<double> min_heap;
    std::vector<double> top;
    top.reserve(keep);
    for (std::size_t i = 0; i < pairs; ++i) {
        if (i == static_cast<std::size_t>(first_pass))
            std::sort(order.begin() + first_pass, order.end(), higher);
        const std::size_t p = order[i].pair;
        const double scale = scales[p / kPairsPerTick];
        if (top.size() == keep) {
            const double bound = scale *
                                 std::exp(spread * radius[p] - half_var) *
                                 (1.0 + kBoundMargin);
            if (bound < top.front())
                break;
        }
        const auto [first, second] = boxMullerPair(radius[p], angle[p]);
        for (const double g : {first, second}) {
            const double latency = scale * std::exp(sigma * g - half_var);
            if (top.size() < keep) {
                top.push_back(latency);
                std::push_heap(top.begin(), top.end(), min_heap);
            } else if (latency > top.front()) {
                std::pop_heap(top.begin(), top.end(), min_heap);
                top.back() = latency;
                std::push_heap(top.begin(), top.end(), min_heap);
            }
        }
        ++tail.exactPairs;
    }

    // top[i] is now order statistic (samples - keep + i); read each q
    // with stats::quantiles' own rank arithmetic.
    std::sort(top.begin(), top.end());
    const std::size_t below = samples - keep;
    tail.ms.reserve(qs.size());
    for (double q : qs) {
        const auto [lo, hi, frac] = stats::quantileRank(q, samples);
        const double at_lo = top[lo - below];
        const double at_hi = top[hi - below];
        tail.ms.push_back(at_lo + frac * (at_hi - at_lo));
    }
    return tail;
}

} // namespace adrias::workloads
