#include "ml/batchnorm.hh"

#include <cmath>
#include <utility>

#include "common/logging.hh"

namespace adrias::ml
{

BatchNorm1d::BatchNorm1d(std::size_t features, double momentum_,
                         double epsilon_)
    : gamma("bn.gamma", Matrix::constant(1, features, 1.0)),
      beta("bn.beta", Matrix(1, features)),
      runMean(1, features),
      runVar(Matrix::constant(1, features, 1.0)),
      momentum(momentum_),
      epsilon(epsilon_)
{
    if (momentum <= 0.0 || momentum > 1.0)
        fatal("BatchNorm1d momentum must lie in (0, 1]");
}

Matrix
BatchNorm1d::forward(const Matrix &input)
{
    const std::size_t batch = input.rows();
    const std::size_t features = input.cols();
    if (features != gamma.value.cols())
        panic("BatchNorm1d feature width mismatch");

    Matrix mean(1, features);
    Matrix var(1, features);

    if (estimatingStats) {
        if (statSum.empty()) {
            statSum = Matrix(1, features);
            statSumSq = Matrix(1, features);
        }
        for (std::size_t r = 0; r < batch; ++r) {
            for (std::size_t c = 0; c < features; ++c) {
                const double v = input.at(r, c);
                statSum.at(0, c) += v;
                statSumSq.at(0, c) += v * v;
            }
        }
        statCount += batch;
    }

    if (isTraining) {
        for (std::size_t c = 0; c < features; ++c) {
            double m = 0.0;
            for (std::size_t r = 0; r < batch; ++r)
                m += input.at(r, c);
            m /= static_cast<double>(batch);
            double v = 0.0;
            for (std::size_t r = 0; r < batch; ++r) {
                const double d = input.at(r, c) - m;
                v += d * d;
            }
            v /= static_cast<double>(batch);
            mean.at(0, c) = m;
            var.at(0, c) = v;
            runMean.at(0, c) =
                (1.0 - momentum) * runMean.at(0, c) + momentum * m;
            runVar.at(0, c) =
                (1.0 - momentum) * runVar.at(0, c) + momentum * v;
        }
    } else {
        mean = runMean;
        var = runVar;
    }

    const bool keep_caches = !isInference;
    Matrix inv_std(1, features);
    for (std::size_t c = 0; c < features; ++c)
        inv_std.at(0, c) = 1.0 / std::sqrt(var.at(0, c) + epsilon);

    if (keep_caches)
        lastNormalized = Matrix(batch, features);
    Matrix out(batch, features);
    for (std::size_t r = 0; r < batch; ++r) {
        for (std::size_t c = 0; c < features; ++c) {
            const double x_hat =
                (input.at(r, c) - mean.at(0, c)) * inv_std.at(0, c);
            if (keep_caches)
                lastNormalized.at(r, c) = x_hat;
            out.at(r, c) =
                gamma.value.at(0, c) * x_hat + beta.value.at(0, c);
        }
    }
    if (keep_caches)
        lastInvStd = std::move(inv_std);
    return out;
}

Matrix
BatchNorm1d::backward(const Matrix &grad_output)
{
    if (isInference)
        panic("BatchNorm1d::backward in inference mode");
    const std::size_t batch = grad_output.rows();
    const std::size_t features = grad_output.cols();
    const auto batch_d = static_cast<double>(batch);

    Matrix grad_input(batch, features);
    for (std::size_t c = 0; c < features; ++c) {
        double sum_dy = 0.0;
        double sum_dy_xhat = 0.0;
        for (std::size_t r = 0; r < batch; ++r) {
            const double dy = grad_output.at(r, c);
            sum_dy += dy;
            sum_dy_xhat += dy * lastNormalized.at(r, c);
        }
        gamma.grad.at(0, c) += sum_dy_xhat;
        beta.grad.at(0, c) += sum_dy;

        const double g = gamma.value.at(0, c);
        const double inv_std = lastInvStd.at(0, c);
        if (isTraining) {
            // Standard batch-norm backward through batch statistics.
            for (std::size_t r = 0; r < batch; ++r) {
                const double dy = grad_output.at(r, c);
                const double x_hat = lastNormalized.at(r, c);
                grad_input.at(r, c) =
                    g * inv_std / batch_d *
                    (batch_d * dy - sum_dy - x_hat * sum_dy_xhat);
            }
        } else {
            // Running stats are constants at eval time.
            for (std::size_t r = 0; r < batch; ++r)
                grad_input.at(r, c) = grad_output.at(r, c) * g * inv_std;
        }
    }
    return grad_input;
}

std::vector<Param *>
BatchNorm1d::params()
{
    return {&gamma, &beta};
}

void
BatchNorm1d::beginStatsEstimation()
{
    estimatingStats = true;
    statCount = 0;
    statSum = Matrix();
    statSumSq = Matrix();
}

void
BatchNorm1d::endStatsEstimation()
{
    if (!estimatingStats)
        panic("BatchNorm1d::endStatsEstimation without begin");
    estimatingStats = false;
    if (statCount == 0)
        return; // no forward passes happened; keep old stats
    const auto n = static_cast<double>(statCount);
    for (std::size_t c = 0; c < runMean.cols(); ++c) {
        const double mean = statSum.at(0, c) / n;
        runMean.at(0, c) = mean;
        runVar.at(0, c) =
            std::max(0.0, statSumSq.at(0, c) / n - mean * mean);
    }
}

std::vector<Matrix *>
BatchNorm1d::stateTensors()
{
    return {&runMean, &runVar};
}

} // namespace adrias::ml
