/**
 * @file
 * Feature standardization (zero mean, unit variance), fitted on the
 * training split only — the usual pre-processing in front of the
 * LSTM models.
 */

#ifndef ADRIAS_ML_SCALER_HH
#define ADRIAS_ML_SCALER_HH

#include <vector>

#include "ml/matrix.hh"

namespace adrias::ml
{

/** Per-column standard scaler. */
class StandardScaler
{
  public:
    /**
     * Estimate per-column mean and standard deviation.
     *
     * @param samples (n x features) design matrix, n >= 1.
     */
    void fit(const Matrix &samples);

    /** Fit across a set of sequences (column statistics pooled). */
    void fitSequences(const std::vector<std::vector<Matrix>> &sequences);

    /** @return standardized copy: (x - mean) / std. @pre fitted. */
    Matrix transform(const Matrix &samples) const;

    /**
     * Standardize row `r` of `samples` into out[0 .. cols): the ops of
     * transform() without building a Matrix.  @pre fitted.
     */
    void transformRow(const Matrix &samples, std::size_t r,
                      double *out) const;

    /** Standardize every step of a time-major sequence. @pre fitted. */
    std::vector<Matrix>
    transformSequence(const std::vector<Matrix> &sequence) const;

    /** @return de-standardized copy: x * std + mean. @pre fitted. */
    Matrix inverseTransform(const Matrix &samples) const;

    /** Inverse-transform a single column (e.g. a scalar target). */
    double inverseTransformScalar(double value, std::size_t column) const;

    /** Transform a single column value. */
    double transformScalar(double value, std::size_t column) const;

    bool fitted() const { return !means.empty(); }
    const std::vector<double> &mean() const { return means; }
    const std::vector<double> &stddev() const { return stds; }

    /** Restore from stored statistics (model load path). */
    void restore(std::vector<double> means_, std::vector<double> stds_);

  private:
    std::vector<double> means;
    std::vector<double> stds;

    void checkFitted(std::size_t width) const;
};

} // namespace adrias::ml

#endif // ADRIAS_ML_SCALER_HH
