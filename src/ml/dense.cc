#include "ml/dense.hh"

#include <cmath>
#include <utility>

#include "common/logging.hh"

namespace adrias::ml
{

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng &rng)
    : weight("dense.weight", Matrix(in_features, out_features)),
      bias("dense.bias", Matrix(1, out_features))
{
    // Glorot/Xavier uniform keeps activation variance stable through
    // the non-linear blocks.
    const double limit = std::sqrt(
        6.0 / static_cast<double>(in_features + out_features));
    for (double &w : weight.value.raw())
        w = rng.uniform(-limit, limit);
}

Matrix
Dense::forward(const Matrix &input)
{
    if (!isInference)
        lastInput = input;
    Matrix out;
    input.matmulInto(weight.value, out);
    out.addRowBroadcastInPlace(bias.value);
    return out;
}

void
Dense::inferInPlace(Matrix &activation)
{
    // forward()'s ops into a kept buffer; the swap hands the input's
    // storage back as the next call's output buffer.
    activation.matmulInto(weight.value, inferOut);
    inferOut.addRowBroadcastInPlace(bias.value);
    std::swap(activation, inferOut);
}

Matrix
Dense::backward(const Matrix &grad_output)
{
    if (isInference)
        panic("Dense::backward in inference mode");
    // Compute-then-accumulate: the product is finished in the staging
    // buffer before it is added to the gradient.
    lastInput.transposedMatmulInto(grad_output, gradScratch);
    weight.grad += gradScratch;
    grad_output.sumRowsAddTo(bias.grad);
    return grad_output.matmulTransposed(weight.value);
}

std::vector<Param *>
Dense::params()
{
    return {&weight, &bias};
}

} // namespace adrias::ml
