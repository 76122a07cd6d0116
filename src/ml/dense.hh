/**
 * @file
 * Fully-connected (dense) layer: y = x W + b.
 */

#ifndef ADRIAS_ML_DENSE_HH
#define ADRIAS_ML_DENSE_HH

#include "common/rng.hh"
#include "ml/layer.hh"

namespace adrias::ml
{

/** Affine layer with Glorot-uniform initialized weights. */
class Dense : public Layer
{
  public:
    /**
     * @param in_features input width.
     * @param out_features output width.
     * @param rng source for weight initialization.
     */
    Dense(std::size_t in_features, std::size_t out_features, Rng &rng);

    Matrix forward(const Matrix &input) override;
    Matrix backward(const Matrix &grad_output) override;
    std::vector<Param *> params() override;
    void inferInPlace(Matrix &activation) override;

  private:
    Param weight; ///< (in x out)
    Param bias;   ///< (1 x out)
    Matrix lastInput;
    Matrix gradScratch; ///< staging buffer for weight-gradient products
    Matrix inferOut;    ///< inferInPlace output, swapped with its input
};

} // namespace adrias::ml

#endif // ADRIAS_ML_DENSE_HH
