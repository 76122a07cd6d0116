/**
 * @file
 * Inverted dropout regularization layer.
 */

#ifndef ADRIAS_ML_DROPOUT_HH
#define ADRIAS_ML_DROPOUT_HH

#include "common/rng.hh"
#include "ml/layer.hh"

namespace adrias::ml
{

/**
 * Inverted dropout: at training time each activation is zeroed with
 * probability p and the survivors are scaled by 1/(1-p); at eval time
 * the layer is the identity.
 */
class Dropout : public Layer
{
  public:
    /**
     * @param probability drop probability in [0, 1).
     * @param rng mask source.
     */
    Dropout(double probability, Rng &rng);

    Matrix forward(const Matrix &input) override;
    Matrix backward(const Matrix &grad_output) override;
    void inferInPlace(Matrix &activation) override;

    double probability() const { return p; }

  private:
    double p;
    Rng *rng;
    Matrix lastMask;
};

} // namespace adrias::ml

#endif // ADRIAS_ML_DROPOUT_HH
