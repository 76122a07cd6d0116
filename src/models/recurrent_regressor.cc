#include "models/recurrent_regressor.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/io/durable_file.hh"
#include "common/logging.hh"
#include "ml/loss.hh"
#include "ml/optimizer.hh"
#include "ml/serialize.hh"
#include "models/batching.hh"
#include "scenario/runner.hh"
#include "testbed/counters.hh"

namespace adrias::models
{

using testbed::kNumPerfEvents;

ml::Matrix
RecurrentRegressor::Encoder::forward(const std::vector<ml::Matrix> &batch)
{
    auto hidden = layer2.forwardSequence(layer1.forwardSequence(batch));
    return std::move(hidden.back());
}

void
RecurrentRegressor::Encoder::backward(const ml::Matrix &grad,
                                      std::size_t col)
{
    // Only the last step's hidden state is read: every other step's
    // gradient is zero.
    const std::size_t H = layer2.hiddenSize();
    std::vector<ml::Matrix> grad_hidden(
        scenario::ScenarioRunner::kWindowBins, ml::Matrix(grad.rows(), H));
    grad.colRangeInto(col, col + H, grad_hidden.back());
    layer1.backwardSequence(layer2.backwardSequence(grad_hidden),
                            ml::Lstm::InputGrad::Skip);
}

RecurrentRegressor::RecurrentRegressor(const ModelConfig &config,
                                       std::size_t encoder_count,
                                       std::size_t columns,
                                       std::size_t outputs_)
    : knobs(config), outputs(outputs_),
      rng(std::make_unique<Rng>(config.seed))
{
    const std::size_t H = knobs.hidden;
    for (std::size_t i = 0; i < encoder_count; ++i)
        encoders.push_back(
            {ml::Lstm(kNumPerfEvents, H, *rng), ml::Lstm(H, H, *rng)});
    head = ml::makeNonLinearHead(encoder_count * H + columns,
                                 knobs.headWidth, outputs, knobs.dropout,
                                 *rng, knobs.headNorm);
}

std::vector<ml::Param *>
RecurrentRegressor::params() const
{
    std::vector<ml::Param *> all;
    for (Encoder &encoder : encoders)
        for (ml::Lstm *layer : {&encoder.layer1, &encoder.layer2})
            for (ml::Param *p : layer->params())
                all.push_back(p);
    for (ml::Param *p : head->params())
        all.push_back(p);
    return all;
}

ml::Matrix
RecurrentRegressor::forward(const Batch &batch)
{
    ml::Matrix hidden = encoders.front().forward(batch.sequences.front());
    for (std::size_t i = 1; i < encoders.size(); ++i)
        hidden = hidden.hconcat(encoders[i].forward(batch.sequences[i]));
    if (batch.columns.cols() > 0)
        hidden = hidden.hconcat(batch.columns);
    return head->forward(hidden);
}

void
RecurrentRegressor::setInference(bool on)
{
    head->setTraining(!on);
    head->setInference(on);
    for (Encoder &encoder : encoders) {
        encoder.layer1.setInference(on);
        encoder.layer2.setInference(on);
    }
}

double
RecurrentRegressor::fit(std::size_t samples, std::size_t epochs,
                        double learning_rate, const Assemble &assemble)
{
    ml::Adam optimizer(params(), learning_rate);
    setInference(false);

    std::vector<std::size_t> order(samples);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const std::span<const std::size_t> indices(order);
    double epoch_loss = 0.0;
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
        rng->shuffle(order);
        epoch_loss = 0.0;
        std::size_t batches = 0;
        forEachChunk(samples, knobs.batchSize,
                     [&](std::size_t begin, std::size_t end) {
            const Batch batch = assemble(indices.subspan(begin, end - begin));
            optimizer.zeroGrad();
            const ml::Matrix prediction = forward(batch);
            ml::Matrix grad;
            epoch_loss += ml::mseLoss(prediction, batch.target, &grad);
            ++batches;
            // The columns' gradient is an input's: nothing reads it.
            grad = head->backward(grad);
            for (std::size_t i = 0; i < encoders.size(); ++i)
                encoders[i].backward(grad, i * knobs.hidden);
            optimizer.clipGradNorm(knobs.gradClip);
            optimizer.step();
        });
        epoch_loss /= static_cast<double>(std::max<std::size_t>(1, batches));
    }

    // Training is done with the LSTMs: the statistics pass and
    // everything after only runs forward, so skip their BPTT caches.
    for (Encoder &encoder : encoders) {
        encoder.layer1.setInference(true);
        encoder.layer2.setInference(true);
    }

    // Exact population statistics for BatchNorm (a clean pass, no
    // updates) remove the train/eval mismatch spiky channel counters
    // cause.  A HeadNorm::Layer head has none: the pass would update
    // nothing and only draw Dropout masks.
    if (!head->stateTensors().empty()) {
        std::iota(order.begin(), order.end(), std::size_t{0});
        head->beginStatsEstimation();
        forEachChunk(samples, knobs.batchSize,
                     [&](std::size_t begin, std::size_t end) {
            forward(assemble(indices.subspan(begin, end - begin)));
        });
        head->endStatsEstimation();
    }

    setInference(true);
    isTrained = true;
    return epoch_loss;
}

ml::Matrix
RecurrentRegressor::encode(
    std::size_t encoder,
    const std::vector<const std::vector<ml::Matrix> *> &sequences) const
{
    return encoders[encoder].forward(stackScaled(counters, sequences));
}

void
RecurrentRegressor::inferHead(ml::Matrix &activation) const
{
    head->inferInPlace(activation);
}

void
RecurrentRegressor::saveState(io::BinaryWriter &out,
                              std::string_view tag) const
{
    if (!isTrained)
        fatal(std::string(tag) + ": saved before training");
    out.writeString(tag);
    ml::saveParams(out, params());
    ml::saveStateTensors(out, head->stateTensors());
    ml::saveScaler(out, counters);
    ml::saveScaler(out, targets);
    rng->saveState(out);
}

Result<RecurrentRegressor::Payload>
RecurrentRegressor::decodeState(io::BinaryReader &in,
                                std::string_view tag) const
{
    if (Result<void> header = in.expectTag(tag); !header)
        return header.error();
    Result<std::vector<ml::Matrix>> values = ml::loadParams(in, params());
    if (!values)
        return values.error();
    Result<std::vector<ml::Matrix>> state =
        ml::loadStateTensors(in, head->stateTensors());
    if (!state)
        return state.error();
    Result<ml::StandardScaler> counter = ml::loadScaler(in, kNumPerfEvents);
    if (!counter)
        return counter.error();
    Result<ml::StandardScaler> target = ml::loadScaler(in, outputs);
    if (!target)
        return target.error();
    Rng stream;
    stream.restoreState(in);
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         std::string(tag) + ": truncated payload");
    return Payload{std::move(values.value()), std::move(state.value()),
                   std::move(counter.value()), std::move(target.value()),
                   stream};
}

void
RecurrentRegressor::restoreState(Payload &&payload)
{
    const std::vector<ml::Param *> parameters = params();
    for (std::size_t i = 0; i < parameters.size(); ++i)
        parameters[i]->value = std::move(payload.params[i]);
    const std::vector<ml::Matrix *> state = head->stateTensors();
    for (std::size_t i = 0; i < state.size(); ++i)
        *state[i] = std::move(payload.state[i]);
    counters = std::move(payload.counters);
    targets = std::move(payload.targets);
    *rng = payload.rng;
    // A restored model only predicts until fit() switches training
    // mode back on.
    setInference(true);
    isTrained = true;
}

void
RecurrentRegressor::save(const std::string &path,
                         std::string_view tag) const
{
    io::BinaryWriter out;
    saveState(out, tag);
    io::atomicWriteFile(path, out.data()).expect();
}

Result<RecurrentRegressor::Payload>
RecurrentRegressor::decodeFile(const std::string &path,
                               std::string_view tag) const
{
    const Result<std::string> content = io::readFile(path);
    if (!content)
        return content.error();
    io::BinaryReader in(content.value());
    Result<Payload> payload = decodeState(in, tag);
    if (Result<void> rest = in.status(); payload && !rest)
        return rest.error();
    return payload;
}

} // namespace adrias::models
