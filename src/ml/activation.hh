/**
 * @file
 * The ReLU activation layer and the scalar sigmoid/tanh helpers.
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

  private:
    Matrix lastInput;
};

/**
 * Scalar sigmoid/tanh helpers used by the reference LSTM cell.  Both
 * delegate to ml/fastmath.hh — every nonlinearity in the model must
 * evaluate through the same scalar functions so the fused and
 * reference kernel paths stay bitwise interchangeable.
 */
double sigmoidScalar(double x);
double tanhScalar(double x);

} // namespace adrias::ml

#endif // ADRIAS_ML_ACTIVATION_HH
