#include "ml/sequential.hh"

#include "common/logging.hh"
#include "ml/activation.hh"
#include "ml/batchnorm.hh"
#include "ml/dense.hh"
#include "ml/dropout.hh"
#include "ml/layernorm.hh"

namespace adrias::ml
{

Sequential &
Sequential::add(std::unique_ptr<Layer> layer)
{
    if (!layer)
        panic("Sequential::add null layer");
    layers.push_back(std::move(layer));
    return *this;
}

Matrix
Sequential::forward(const Matrix &input)
{
    Matrix activation = input;
    if (isInference) {
        inferInPlace(activation);
        return activation;
    }
    for (auto &layer : layers)
        activation = layer->forward(activation);
    return activation;
}

void
Sequential::inferInPlace(Matrix &activation)
{
    if (!isInference)
        panic("Sequential::inferInPlace outside inference mode");
    for (auto &layer : layers)
        layer->inferInPlace(activation);
}

Matrix
Sequential::backward(const Matrix &grad_output)
{
    Matrix grad = grad_output;
    for (auto it = layers.rbegin(); it != layers.rend(); ++it)
        grad = (*it)->backward(grad);
    return grad;
}

std::vector<Param *>
Sequential::params()
{
    std::vector<Param *> all;
    for (auto &layer : layers)
        for (Param *p : layer->params())
            all.push_back(p);
    return all;
}

void
Sequential::setTraining(bool training)
{
    Layer::setTraining(training);
    for (auto &layer : layers)
        layer->setTraining(training);
}

void
Sequential::setInference(bool on)
{
    Layer::setInference(on);
    for (auto &layer : layers)
        layer->setInference(on);
}

void
Sequential::beginStatsEstimation()
{
    for (auto &layer : layers)
        layer->beginStatsEstimation();
}

void
Sequential::endStatsEstimation()
{
    for (auto &layer : layers)
        layer->endStatsEstimation();
}

std::vector<Matrix *>
Sequential::stateTensors()
{
    std::vector<Matrix *> all;
    for (auto &layer : layers)
        for (Matrix *state : layer->stateTensors())
            all.push_back(state);
    return all;
}

std::unique_ptr<Sequential>
makeNonLinearHead(std::size_t input_width, std::size_t hidden_width,
                  std::size_t output_width, double dropout, Rng &rng,
                  HeadNorm norm)
{
    auto head = std::make_unique<Sequential>();
    std::size_t width = input_width;
    for (int block = 0; block < 3; ++block) {
        head->add(std::make_unique<Dense>(width, hidden_width, rng));
        head->add(std::make_unique<ReLU>());
        if (norm == HeadNorm::Batch)
            head->add(std::make_unique<BatchNorm1d>(hidden_width));
        else
            head->add(std::make_unique<LayerNorm>(hidden_width));
        if (dropout > 0.0)
            head->add(std::make_unique<Dropout>(dropout, rng));
        width = hidden_width;
    }
    head->add(std::make_unique<Dense>(width, output_width, rng));
    return head;
}

} // namespace adrias::ml
