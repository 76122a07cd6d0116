/**
 * @file
 * Helpers shared by the ML tests: central-difference gradient
 * checking and the largest absolute element of a tensor.
 */

#ifndef ADRIAS_TESTS_ML_GRADIENT_CHECK_HH
#define ADRIAS_TESTS_ML_GRADIENT_CHECK_HH

#include <algorithm>
#include <cmath>
#include <functional>

#include "ml/matrix.hh"

namespace adrias::ml::testutil
{

/**
 * Compare an analytic gradient against central differences of a scalar
 * function of one tensor.
 *
 * @param value tensor at which to evaluate (perturbed in place and
 *        restored).
 * @param analytic analytic dLoss/dValue, same shape.
 * @param loss re-evaluates the scalar loss for the current tensor.
 * @param epsilon perturbation step.
 * @return largest relative error across elements.
 */
inline double
maxGradientError(Matrix &value, const Matrix &analytic,
                 const std::function<double()> &loss,
                 double epsilon = 1e-5)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < value.size(); ++i) {
        const double saved = value.raw()[i];
        value.raw()[i] = saved + epsilon;
        const double up = loss();
        value.raw()[i] = saved - epsilon;
        const double down = loss();
        value.raw()[i] = saved;
        const double numeric = (up - down) / (2.0 * epsilon);
        const double a = analytic.raw()[i];
        const double scale =
            std::max({std::fabs(numeric), std::fabs(a), 1e-8});
        worst = std::max(worst, std::fabs(numeric - a) / scale);
    }
    return worst;
}

/** @return the largest absolute element of `m` (0 when empty). */
inline double
maxAbs(const Matrix &m)
{
    double peak = 0.0;
    for (const double x : m.raw())
        peak = std::max(peak, std::fabs(x));
    return peak;
}

} // namespace adrias::ml::testutil

#endif // ADRIAS_TESTS_ML_GRADIENT_CHECK_HH
