#include "stats/regression_metrics.hh"

#include <cmath>

#include "common/logging.hh"

namespace adrias::stats
{

namespace
{

void
checkSizes(const std::vector<double> &actual,
           const std::vector<double> &predicted)
{
    if (actual.empty())
        fatal("regression metric on empty sample");
    if (actual.size() != predicted.size())
        fatal("regression metric size mismatch");
}

} // namespace

double
r2Score(const std::vector<double> &actual,
        const std::vector<double> &predicted)
{
    checkSizes(actual, predicted);
    double mean = 0.0;
    for (double a : actual)
        mean += a;
    mean /= static_cast<double>(actual.size());

    double ss_res = 0.0;
    double ss_tot = 0.0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        const double res = actual[i] - predicted[i];
        const double dev = actual[i] - mean;
        ss_res += res * res;
        ss_tot += dev * dev;
    }
    if (ss_tot <= 0.0)
        return ss_res <= 0.0 ? 1.0 : 0.0;
    return 1.0 - ss_res / ss_tot;
}

double
meanAbsoluteError(const std::vector<double> &actual,
                  const std::vector<double> &predicted)
{
    checkSizes(actual, predicted);
    double total = 0.0;
    for (std::size_t i = 0; i < actual.size(); ++i)
        total += std::fabs(actual[i] - predicted[i]);
    return total / static_cast<double>(actual.size());
}

} // namespace adrias::stats
