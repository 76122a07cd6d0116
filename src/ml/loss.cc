#include "ml/loss.hh"


#include "common/logging.hh"

namespace adrias::ml
{

double
mseLoss(const Matrix &prediction, const Matrix &target, Matrix *grad)
{
    if (prediction.rows() != target.rows() ||
        prediction.cols() != target.cols()) {
        panic("mseLoss shape mismatch: " + prediction.shape() + " vs " +
              target.shape());
    }
    const auto n = static_cast<double>(prediction.size());
    double total = 0.0;
    if (grad)
        *grad = Matrix(prediction.rows(), prediction.cols());
    for (std::size_t i = 0; i < prediction.size(); ++i) {
        const double diff = prediction.raw()[i] - target.raw()[i];
        total += diff * diff;
        if (grad)
            grad->raw()[i] = 2.0 * diff / n;
    }
    return total / n;
}

} // namespace adrias::ml
