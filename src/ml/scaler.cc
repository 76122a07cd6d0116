#include "ml/scaler.hh"

#include <cmath>

#include "common/logging.hh"
#include "stats/online_stats.hh"

namespace adrias::ml
{

void
StandardScaler::fit(const Matrix &samples)
{
    if (samples.rows() == 0)
        fatal("StandardScaler::fit on empty design matrix");
    std::vector<stats::OnlineStats> columns(samples.cols());
    for (std::size_t r = 0; r < samples.rows(); ++r)
        for (std::size_t c = 0; c < samples.cols(); ++c)
            columns[c].add(samples.at(r, c));

    means.assign(samples.cols(), 0.0);
    stds.assign(samples.cols(), 1.0);
    for (std::size_t c = 0; c < samples.cols(); ++c) {
        means[c] = columns[c].mean();
        const double sd = columns[c].stddev();
        stds[c] = sd > 1e-12 ? sd : 1.0; // constant columns stay as-is
    }
}

void
StandardScaler::fitSequences(
    const std::vector<std::vector<Matrix>> &sequences)
{
    if (sequences.empty() || sequences.front().empty())
        fatal("StandardScaler::fitSequences on empty input");
    const std::size_t width = sequences.front().front().cols();
    std::vector<stats::OnlineStats> columns(width);
    for (const auto &sequence : sequences) {
        for (const Matrix &step : sequence) {
            if (step.cols() != width)
                panic("StandardScaler::fitSequences ragged widths");
            for (std::size_t r = 0; r < step.rows(); ++r)
                for (std::size_t c = 0; c < width; ++c)
                    columns[c].add(step.at(r, c));
        }
    }
    means.assign(width, 0.0);
    stds.assign(width, 1.0);
    for (std::size_t c = 0; c < width; ++c) {
        means[c] = columns[c].mean();
        const double sd = columns[c].stddev();
        stds[c] = sd > 1e-12 ? sd : 1.0;
    }
}

void
StandardScaler::checkFitted(std::size_t width) const
{
    if (!fitted())
        fatal("StandardScaler used before fit()");
    if (width != means.size())
        panic("StandardScaler width mismatch");
}

Matrix
StandardScaler::transform(const Matrix &samples) const
{
    checkFitted(samples.cols());
    Matrix out = samples;
    for (std::size_t r = 0; r < out.rows(); ++r)
        for (std::size_t c = 0; c < out.cols(); ++c)
            out.at(r, c) = (out.at(r, c) - means[c]) / stds[c];
    return out;
}

void
StandardScaler::transformRow(const Matrix &samples, std::size_t r,
                             double *out) const
{
    checkFitted(samples.cols());
    if (r >= samples.rows())
        panic("StandardScaler::transformRow row out of range");
    for (std::size_t c = 0; c < samples.cols(); ++c)
        out[c] = (samples.at(r, c) - means[c]) / stds[c];
}

std::vector<Matrix>
StandardScaler::transformSequence(const std::vector<Matrix> &sequence) const
{
    std::vector<Matrix> out;
    out.reserve(sequence.size());
    for (const Matrix &step : sequence)
        out.push_back(transform(step));
    return out;
}

Matrix
StandardScaler::inverseTransform(const Matrix &samples) const
{
    checkFitted(samples.cols());
    Matrix out = samples;
    for (std::size_t r = 0; r < out.rows(); ++r)
        for (std::size_t c = 0; c < out.cols(); ++c)
            out.at(r, c) = out.at(r, c) * stds[c] + means[c];
    return out;
}

double
StandardScaler::inverseTransformScalar(double value,
                                       std::size_t column) const
{
    checkFitted(means.size());
    if (column >= means.size())
        panic("StandardScaler column out of range");
    return value * stds[column] + means[column];
}

double
StandardScaler::transformScalar(double value, std::size_t column) const
{
    checkFitted(means.size());
    if (column >= means.size())
        panic("StandardScaler column out of range");
    return (value - means[column]) / stds[column];
}

void
StandardScaler::restore(std::vector<double> means_,
                        std::vector<double> stds_)
{
    if (means_.size() != stds_.size())
        fatal("StandardScaler::restore size mismatch");
    means = std::move(means_);
    stds = std::move(stds_);
}

} // namespace adrias::ml
