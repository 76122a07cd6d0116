/**
 * @file
 * The ReLU activation layer.  The LSTM's sigmoid and tanh are the
 * inline ml/fastmath.hh functions.
 */

#ifndef ADRIAS_ML_ACTIVATION_HH
#define ADRIAS_ML_ACTIVATION_HH

#include "ml/layer.hh"

namespace adrias::ml
{

/** Rectified linear unit: y = max(0, x). */
class ReLU : public Layer
{
  public:
    Matrix forward(const Matrix &input) override;
    Matrix backward(const Matrix &grad_output) override;
    void inferInPlace(Matrix &activation) override;

  private:
    Matrix lastInput;
};

} // namespace adrias::ml

#endif // ADRIAS_ML_ACTIVATION_HH
