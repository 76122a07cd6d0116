/**
 * @file
 * 1-D batch normalization, as used inside the non-linear blocks of the
 * Adrias prediction models (Fig. 11).
 */

#ifndef ADRIAS_ML_BATCHNORM_HH
#define ADRIAS_ML_BATCHNORM_HH

#include "ml/layer.hh"

namespace adrias::ml
{

/**
 * Per-feature batch normalization with learned scale/shift and running
 * statistics for inference.
 */
class BatchNorm1d : public Layer
{
  public:
    /**
     * @param features normalized feature count.
     * @param momentum running-statistics update rate in (0, 1].
     * @param epsilon variance floor.
     */
    explicit BatchNorm1d(std::size_t features, double momentum = 0.1,
                         double epsilon = 1e-5);

    Matrix forward(const Matrix &input) override;
    Matrix backward(const Matrix &grad_output) override;
    std::vector<Param *> params() override;
    void beginStatsEstimation() override;
    void endStatsEstimation() override;
    std::vector<Matrix *> stateTensors() override;

  private:
    Param gamma; ///< (1 x features) learned scale
    Param beta;  ///< (1 x features) learned shift
    Matrix runMean;
    Matrix runVar;
    double momentum;
    double epsilon;

    // forward caches for backward
    Matrix lastNormalized; ///< x_hat
    Matrix lastInvStd;     ///< 1/sqrt(var + eps), (1 x features)

    // exact population-statistics estimation
    bool estimatingStats = false;
    std::size_t statCount = 0;
    Matrix statSum;
    Matrix statSumSq;
};

} // namespace adrias::ml

#endif // ADRIAS_ML_BATCHNORM_HH
