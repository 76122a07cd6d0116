/**
 * @file
 * Loss functions for model training.
 */

#ifndef ADRIAS_ML_LOSS_HH
#define ADRIAS_ML_LOSS_HH

#include "ml/matrix.hh"

namespace adrias::ml
{

/**
 * Mean squared error over all elements.
 *
 * @param prediction model outputs.
 * @param target ground truth, same shape.
 * @param grad [out] optional dLoss/dPrediction.
 * @return scalar loss.
 */
double mseLoss(const Matrix &prediction, const Matrix &target,
               Matrix *grad = nullptr);

} // namespace adrias::ml

#endif // ADRIAS_ML_LOSS_HH
