/**
 * @file
 * Model-quality metrics used throughout the evaluation: R², MAE, RMSE,
 * MAPE — the quantities the paper reports in Table I and Figs. 12-15.
 */

#ifndef ADRIAS_STATS_REGRESSION_METRICS_HH
#define ADRIAS_STATS_REGRESSION_METRICS_HH

#include <vector>

namespace adrias::stats
{

/**
 * Coefficient of determination.
 *
 * R² = 1 - SS_res / SS_tot, computed against the mean of @p actual.
 * Degenerate case: when all actual values are identical, returns 1 if
 * predictions match exactly, else 0.
 *
 * @pre actual.size() == predicted.size() and both non-empty.
 */
double r2Score(const std::vector<double> &actual,
               const std::vector<double> &predicted);

/** Mean absolute error. @pre sizes match and are non-zero. */
double meanAbsoluteError(const std::vector<double> &actual,
                         const std::vector<double> &predicted);

} // namespace adrias::stats

#endif // ADRIAS_STATS_REGRESSION_METRICS_HH
