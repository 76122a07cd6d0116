/**
 * @file
 * Layer normalization (Ba et al., 2016): per-sample normalization over
 * the feature dimension with learned scale/shift.
 *
 * Unlike batch normalization it has no train/eval statistics gap,
 * which matters here: the channel counters are spiky, so small-batch
 * statistics vary wildly between batches and a BatchNorm-based head
 * fails to transfer from batched training to single-sample inference
 * (see DESIGN.md §5 for this documented substitution).
 */

#ifndef ADRIAS_ML_LAYERNORM_HH
#define ADRIAS_ML_LAYERNORM_HH

#include "ml/layer.hh"

namespace adrias::ml
{

/** Per-row feature normalization with learned gamma/beta. */
class LayerNorm : public Layer
{
  public:
    /**
     * @param features normalized width.
     * @param epsilon variance floor.
     */
    explicit LayerNorm(std::size_t features, double epsilon = 1e-5);

    Matrix forward(const Matrix &input) override;
    Matrix backward(const Matrix &grad_output) override;
    std::vector<Param *> params() override;
    void inferInPlace(Matrix &activation) override;

  private:
    Param gamma;
    Param beta;
    double epsilon;

    Matrix lastNormalized; ///< x_hat
    Matrix lastInvStd;     ///< per-row 1/sqrt(var+eps), (batch x 1)
};

} // namespace adrias::ml

#endif // ADRIAS_ML_LAYERNORM_HH
