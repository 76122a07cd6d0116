#include "ml/activation.hh"

#include "common/logging.hh"

namespace adrias::ml
{

Matrix
ReLU::forward(const Matrix &input)
{
    if (!isInference)
        lastInput = input;
    Matrix out = input;
    for (double &x : out.raw())
        x = x > 0.0 ? x : 0.0;
    return out;
}

void
ReLU::inferInPlace(Matrix &activation)
{
    for (double &x : activation.raw())
        x = x > 0.0 ? x : 0.0;
}

Matrix
ReLU::backward(const Matrix &grad_output)
{
    if (isInference)
        panic("ReLU::backward in inference mode");
    Matrix grad = grad_output;
    const auto &in = lastInput.raw();
    auto &g = grad.raw();
    for (std::size_t i = 0; i < g.size(); ++i)
        if (in[i] <= 0.0)
            g[i] = 0.0;
    return grad;
}

} // namespace adrias::ml
