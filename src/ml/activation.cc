#include "ml/activation.hh"

#include "common/logging.hh"
#include "ml/fastmath.hh"

namespace adrias::ml
{

double
sigmoidScalar(double x)
{
    return fastmath::sigmoid(x);
}

double
tanhScalar(double x)
{
    return fastmath::tanh(x);
}

Matrix
ReLU::forward(const Matrix &input)
{
    if (!isInference)
        lastInput = input;
    return input.map([](double x) { return x > 0.0 ? x : 0.0; });
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
