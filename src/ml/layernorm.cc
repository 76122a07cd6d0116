#include "ml/layernorm.hh"

#include <cmath>

#include "common/logging.hh"

namespace adrias::ml
{

LayerNorm::LayerNorm(std::size_t features, double epsilon_)
    : gamma("ln.gamma", Matrix::constant(1, features, 1.0)),
      beta("ln.beta", Matrix(1, features)), epsilon(epsilon_)
{
}

Matrix
LayerNorm::forward(const Matrix &input)
{
    if (isInference) {
        Matrix out = input;
        inferInPlace(out);
        return out;
    }
    const std::size_t batch = input.rows();
    const std::size_t features = input.cols();
    if (features != gamma.value.cols())
        panic("LayerNorm feature width mismatch");

    lastNormalized = Matrix(batch, features);
    lastInvStd = Matrix(batch, 1);
    Matrix out(batch, features);
    const auto n = static_cast<double>(features);

    for (std::size_t r = 0; r < batch; ++r) {
        double mean = 0.0;
        for (std::size_t c = 0; c < features; ++c)
            mean += input.at(r, c);
        mean /= n;
        double var = 0.0;
        for (std::size_t c = 0; c < features; ++c) {
            const double d = input.at(r, c) - mean;
            var += d * d;
        }
        var /= n;
        const double inv_std = 1.0 / std::sqrt(var + epsilon);
        lastInvStd.at(r, 0) = inv_std;
        for (std::size_t c = 0; c < features; ++c) {
            const double x_hat = (input.at(r, c) - mean) * inv_std;
            lastNormalized.at(r, c) = x_hat;
            out.at(r, c) =
                gamma.value.at(0, c) * x_hat + beta.value.at(0, c);
        }
    }
    return out;
}

namespace
{

/**
 * forward()'s per-row math over Rows rows at once, in place.  Each
 * row's sum and sum of squares still run over its columns in order
 * from 0.0; interleaving Rows independent rows only lets their add
 * chains overlap, the serial part of a row.
 */
template <std::size_t Rows>
void
normalizeRows(double *x, std::size_t features, const double *gamma,
              const double *beta, double epsilon)
{
    const auto n = static_cast<double>(features);
    double mean[Rows] = {};
    for (std::size_t c = 0; c < features; ++c)
        for (std::size_t i = 0; i < Rows; ++i)
            mean[i] += x[i * features + c];
    for (std::size_t i = 0; i < Rows; ++i)
        mean[i] /= n;
    double var[Rows] = {};
    for (std::size_t c = 0; c < features; ++c)
        for (std::size_t i = 0; i < Rows; ++i) {
            const double d = x[i * features + c] - mean[i];
            var[i] += d * d;
        }
    double inv_std[Rows];
    for (std::size_t i = 0; i < Rows; ++i)
        inv_std[i] = 1.0 / std::sqrt(var[i] / n + epsilon);
    for (std::size_t i = 0; i < Rows; ++i)
        for (std::size_t c = 0; c < features; ++c) {
            double &v = x[i * features + c];
            v = gamma[c] * ((v - mean[i]) * inv_std[i]) + beta[c];
        }
}

} // namespace

void
LayerNorm::inferInPlace(Matrix &activation)
{
    const std::size_t batch = activation.rows();
    const std::size_t features = activation.cols();
    if (features != gamma.value.cols())
        panic("LayerNorm feature width mismatch");
    constexpr std::size_t kBlock = 4;
    double *x = activation.raw().data();
    const double *g = gamma.value.raw().data();
    const double *b = beta.value.raw().data();
    std::size_t r = 0;
    for (; r + kBlock <= batch; r += kBlock)
        normalizeRows<kBlock>(x + r * features, features, g, b, epsilon);
    for (; r < batch; ++r)
        normalizeRows<1>(x + r * features, features, g, b, epsilon);
}

Matrix
LayerNorm::backward(const Matrix &grad_output)
{
    if (isInference)
        panic("LayerNorm::backward in inference mode");
    const std::size_t batch = grad_output.rows();
    const std::size_t features = grad_output.cols();
    const auto n = static_cast<double>(features);

    Matrix grad_input(batch, features);
    for (std::size_t r = 0; r < batch; ++r) {
        double sum_gdy = 0.0;
        double sum_gdy_xhat = 0.0;
        for (std::size_t c = 0; c < features; ++c) {
            const double dy = grad_output.at(r, c);
            const double x_hat = lastNormalized.at(r, c);
            const double g = gamma.value.at(0, c);
            gamma.grad.at(0, c) += dy * x_hat;
            beta.grad.at(0, c) += dy;
            sum_gdy += g * dy;
            sum_gdy_xhat += g * dy * x_hat;
        }
        const double inv_std = lastInvStd.at(r, 0);
        for (std::size_t c = 0; c < features; ++c) {
            const double dy = grad_output.at(r, c);
            const double x_hat = lastNormalized.at(r, c);
            const double g = gamma.value.at(0, c);
            grad_input.at(r, c) =
                inv_std / n *
                (n * g * dy - sum_gdy - x_hat * sum_gdy_xhat);
        }
    }
    return grad_input;
}

std::vector<Param *>
LayerNorm::params()
{
    return {&gamma, &beta};
}

} // namespace adrias::ml
