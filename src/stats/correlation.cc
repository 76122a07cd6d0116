#include "stats/correlation.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"

namespace adrias::stats
{

double
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.size() != y.size())
        fatal("pearson: size mismatch");
    if (x.size() < 2)
        fatal("pearson: need at least two points");

    const auto n = static_cast<double>(x.size());
    double mean_x = 0.0, mean_y = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        mean_x += x[i];
        mean_y += y[i];
    }
    mean_x /= n;
    mean_y /= n;

    double cov = 0.0, var_x = 0.0, var_y = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double dx = x[i] - mean_x;
        const double dy = y[i] - mean_y;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if (var_x <= 0.0 || var_y <= 0.0)
        return 0.0;
    return cov / std::sqrt(var_x * var_y);
}

std::vector<double>
fractionalRanks(const std::vector<double> &values)
{
    std::vector<std::size_t> order(values.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return values[a] < values[b];
              });

    std::vector<double> ranks(values.size(), 0.0);
    std::size_t i = 0;
    while (i < order.size()) {
        std::size_t j = i;
        while (j + 1 < order.size() &&
               values[order[j + 1]] == values[order[i]]) {
            ++j;
        }
        // Average rank for the tie group [i, j], 1-based.
        const double avg_rank =
            (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
        for (std::size_t k = i; k <= j; ++k)
            ranks[order[k]] = avg_rank;
        i = j + 1;
    }
    return ranks;
}

} // namespace adrias::stats
