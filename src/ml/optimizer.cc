#include "ml/optimizer.hh"

#include <cmath>

#include "common/logging.hh"

namespace adrias::ml
{

Adam::Adam(std::vector<Param *> parameters, double learning_rate,
           double beta1_, double beta2_, double epsilon_)
    : params(std::move(parameters)), lr(learning_rate), beta1(beta1_),
      beta2(beta2_), epsilon(epsilon_)
{
    for (const Param *p : params)
        if (!p)
            panic("Adam given a null parameter");
    if (lr <= 0.0)
        fatal("Adam learning rate must be positive");
    m.reserve(params.size());
    v.reserve(params.size());
    for (const Param *p : params) {
        m.emplace_back(p->value.rows(), p->value.cols());
        v.emplace_back(p->value.rows(), p->value.cols());
    }
}

void
Adam::zeroGrad()
{
    for (Param *p : params)
        p->zeroGrad();
}

double
Adam::clipGradNorm(double max_norm)
{
    if (max_norm <= 0.0)
        fatal("clipGradNorm: max_norm must be positive");
    double total_sq = 0.0;
    for (const Param *p : params)
        for (double g : p->grad.raw())
            total_sq += g * g;
    const double norm = std::sqrt(total_sq);
    if (norm > max_norm && norm > 0.0) {
        const double scale = max_norm / norm;
        for (Param *p : params)
            p->grad *= scale;
    }
    return norm;
}

void
Adam::step()
{
    ++t;
    const double bias1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    const double bias2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    for (std::size_t i = 0; i < params.size(); ++i) {
        Param &p = *params[i];
        for (std::size_t j = 0; j < p.value.size(); ++j) {
            const double g = p.grad.raw()[j];
            m[i].raw()[j] = beta1 * m[i].raw()[j] + (1.0 - beta1) * g;
            v[i].raw()[j] = beta2 * v[i].raw()[j] + (1.0 - beta2) * g * g;
            const double m_hat = m[i].raw()[j] / bias1;
            const double v_hat = v[i].raw()[j] / bias2;
            p.value.raw()[j] -=
                lr * m_hat / (std::sqrt(v_hat) + epsilon);
        }
    }
}

} // namespace adrias::ml
