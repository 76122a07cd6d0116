#include "stats/correlation.hh"

#include <cmath>

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

} // namespace adrias::stats
