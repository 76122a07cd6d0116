#include "ml/dropout.hh"

#include "common/logging.hh"

namespace adrias::ml
{

Dropout::Dropout(double probability, Rng &rng_) : p(probability), rng(&rng_)
{
    if (p < 0.0 || p >= 1.0)
        fatal("Dropout probability must lie in [0, 1)");
}

Matrix
Dropout::forward(const Matrix &input)
{
    if (isInference || !isTraining || p <= 0.0) {
        lastMask = Matrix();
        return input;
    }
    const double keep_scale = 1.0 / (1.0 - p);
    lastMask = Matrix(input.rows(), input.cols());
    Matrix out = input;
    auto &mask = lastMask.raw();
    auto &data = out.raw();
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (rng->bernoulli(p)) {
            mask[i] = 0.0;
            data[i] = 0.0;
        } else {
            mask[i] = keep_scale;
            data[i] *= keep_scale;
        }
    }
    return out;
}

void
Dropout::inferInPlace(Matrix &activation)
{
    // The identity wherever forward() is one; no copy.
    if (isInference || !isTraining || p <= 0.0)
        return;
    activation = forward(activation);
}

Matrix
Dropout::backward(const Matrix &grad_output)
{
    if (isInference)
        panic("Dropout::backward in inference mode");
    if (lastMask.empty())
        return grad_output;
    return grad_output.hadamard(lastMask);
}

} // namespace adrias::ml
