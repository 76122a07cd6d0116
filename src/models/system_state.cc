#include "models/system_state.hh"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <utility>

#include "common/io/durable_file.hh"
#include "common/logging.hh"
#include "ml/loss.hh"
#include "ml/optimizer.hh"
#include "ml/serialize.hh"
#include "models/batching.hh"
#include "stats/regression_metrics.hh"
#include "testbed/counters.hh"

namespace adrias::models
{

using testbed::kNumPerfEvents;

/** Leads every saveState() payload. */
constexpr std::string_view kPayloadFormat = "system-state-model-v1";

SystemStateModel::SystemStateModel(ModelConfig config_)
    : config(config_), rng(config_.seed),
      stateMemo("predictor.state_memo", kNumPerfEvents)
{
    lstm1 = std::make_unique<ml::Lstm>(kNumPerfEvents, config.hidden, rng);
    lstm2 = std::make_unique<ml::Lstm>(config.hidden, config.hidden, rng);
    head = ml::makeNonLinearHead(config.hidden, config.headWidth,
                                 kNumPerfEvents, config.dropout, rng,
                                 config.headNorm);
}

std::vector<ml::Param *>
SystemStateModel::params() const
{
    std::vector<ml::Param *> all = lstm1->params();
    for (ml::Param *p : lstm2->params())
        all.push_back(p);
    for (ml::Param *p : head->params())
        all.push_back(p);
    return all;
}

ml::Matrix
SystemStateModel::forwardBatch(const std::vector<ml::Matrix> &batch) const
{
    const auto hidden1 = lstm1->forwardSequence(batch);
    const auto hidden2 = lstm2->forwardSequence(hidden1);
    return head->forward(hidden2.back());
}

void
SystemStateModel::backwardBatch(const ml::Matrix &grad_output,
                                std::size_t batch_rows) const
{
    ml::Matrix grad_last = head->backward(grad_output);
    std::vector<ml::Matrix> grad_hidden2(
        scenario::ScenarioRunner::kWindowBins,
        ml::Matrix(batch_rows, config.hidden));
    grad_hidden2.back() = std::move(grad_last);
    const auto grad_hidden1 = lstm2->backwardSequence(grad_hidden2);
    // dLoss/dX of the first layer is the input's: nobody reads it.
    lstm1->backwardSequence(grad_hidden1, ml::Lstm::InputGrad::Skip);
}

double
SystemStateModel::train(
    const std::vector<scenario::SystemStateSample> &samples)
{
    if (samples.size() < 4)
        fatal("SystemStateModel::train: too few samples");
    // The scalers and weights change below.
    stateMemo.clear();

    // Fit scalers on the training inputs/targets only.
    std::vector<std::vector<ml::Matrix>> sequences;
    sequences.reserve(samples.size());
    for (const auto &sample : samples)
        sequences.push_back(sample.history);
    inputScaler.fitSequences(sequences);

    ml::Matrix targets(samples.size(), kNumPerfEvents);
    for (std::size_t i = 0; i < samples.size(); ++i)
        for (std::size_t e = 0; e < kNumPerfEvents; ++e)
            targets.at(i, e) = samples[i].target.at(0, e);
    targetScaler.fit(targets);

    auto parameters = params();
    ml::Adam optimizer(parameters, config.learningRate);
    head->setTraining(true);
    head->setInference(false);
    lstm1->setInference(false);
    lstm2->setInference(false);

    std::vector<std::size_t> order(samples.size());
    std::iota(order.begin(), order.end(), std::size_t{0});

    double epoch_loss = 0.0;
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        rng.shuffle(order);
        epoch_loss = 0.0;
        std::size_t batches = 0;
        for (std::size_t begin = 0; begin < order.size();
             begin += config.batchSize) {
            const std::size_t end =
                std::min(order.size(), begin + config.batchSize);

            std::vector<const std::vector<ml::Matrix> *> batch_seqs;
            std::vector<const ml::Matrix *> batch_targets;
            for (std::size_t i = begin; i < end; ++i) {
                batch_seqs.push_back(&samples[order[i]].history);
                batch_targets.push_back(&samples[order[i]].target);
            }

            const auto batch = stackScaled(inputScaler, batch_seqs);
            const ml::Matrix target =
                targetScaler.transform(stackRows(batch_targets));

            optimizer.zeroGrad();
            const ml::Matrix prediction = forwardBatch(batch);
            ml::Matrix grad;
            epoch_loss += ml::mseLoss(prediction, target, &grad);
            ++batches;
            backwardBatch(grad, end - begin);
            optimizer.clipGradNorm(config.gradClip);
            optimizer.step();
        }
        epoch_loss /= static_cast<double>(std::max<std::size_t>(1, batches));
    }

    // Training is done with the LSTMs: every forward from here on is
    // inference-only, so skip their BPTT caches (outputs unchanged).
    lstm1->setInference(true);
    lstm2->setInference(true);

    // One clean pass to replace BatchNorm running statistics with exact
    // population statistics — eliminates the train/eval normalization
    // mismatch that spiky channel counters otherwise cause.  A head
    // without such statistics (HeadNorm::Layer) skips it: the pass
    // would update nothing and only draw Dropout masks.
    if (!head->stateTensors().empty()) {
        head->beginStatsEstimation();
        for (std::size_t begin = 0; begin < samples.size();
             begin += config.batchSize) {
            const std::size_t end =
                std::min(samples.size(), begin + config.batchSize);
            std::vector<const std::vector<ml::Matrix> *> histories;
            for (std::size_t i = begin; i < end; ++i)
                histories.push_back(&samples[i].history);
            forwardBatch(stackScaled(inputScaler, histories));
        }
        head->endStatsEstimation();
    }

    head->setTraining(false);
    head->setInference(true);
    isTrained = true;
    return epoch_loss;
}

void
SystemStateModel::saveState(io::BinaryWriter &out) const
{
    if (!isTrained)
        fatal("SystemStateModel::save before train()");
    out.writeString(kPayloadFormat);
    ml::saveParams(out, params());
    ml::saveStateTensors(out, head->stateTensors());
    ml::saveScaler(out, inputScaler);
    ml::saveScaler(out, targetScaler);
    rng.saveState(out);
}

Result<void>
SystemStateModel::restoreState(io::BinaryReader &in)
{
    if (Result<void> header = in.expectTag(kPayloadFormat); !header)
        return header;
    const std::vector<ml::Param *> parameters = params();
    const std::vector<ml::Matrix *> state = head->stateTensors();
    Result<std::vector<ml::Matrix>> values = ml::loadParams(in, parameters);
    if (!values)
        return values.error();
    Result<std::vector<ml::Matrix>> norms =
        ml::loadStateTensors(in, state);
    if (!norms)
        return norms.error();
    Result<ml::StandardScaler> input = ml::loadScaler(in, kNumPerfEvents);
    if (!input)
        return input.error();
    Result<ml::StandardScaler> target = ml::loadScaler(in, kNumPerfEvents);
    if (!target)
        return target.error();
    Rng stream;
    stream.restoreState(in);
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "SystemStateModel: truncated payload");

    for (std::size_t i = 0; i < parameters.size(); ++i)
        parameters[i]->value = std::move(values.value()[i]);
    for (std::size_t i = 0; i < state.size(); ++i)
        *state[i] = std::move(norms.value()[i]);
    inputScaler = std::move(input.value());
    targetScaler = std::move(target.value());
    rng = stream;
    stateMemo.clear();
    head->setTraining(false);
    // A restored model only ever predicts (re-training reconstructs
    // it), so the whole pipeline runs the inference fast-path.
    head->setInference(true);
    lstm1->setInference(true);
    lstm2->setInference(true);
    isTrained = true;
    return {};
}

void
SystemStateModel::save(const std::string &path) const
{
    io::BinaryWriter out;
    saveState(out);
    io::atomicWriteFile(path, out.data()).expect();
}

Result<void>
SystemStateModel::load(const std::string &path)
{
    const Result<std::string> content = io::readFile(path);
    if (!content)
        return content.error();
    io::BinaryReader in(content.value());
    if (Result<void> restored = restoreState(in); !restored)
        return restored;
    return in.status();
}

ml::Matrix
SystemStateModel::predict(const std::vector<ml::Matrix> &history) const
{
    return std::move(predictBatch({&history}).front());
}

std::vector<ml::Matrix>
SystemStateModel::predictBatch(
    const std::vector<const std::vector<ml::Matrix> *> &histories) const
{
    if (!isTrained)
        fatal("SystemStateModel::predictBatch before train()");
    if (histories.empty())
        fatal("SystemStateModel::predictBatch on empty batch");

    for (const auto *history : histories)
        if (history == nullptr || history->empty())
            fatal("SystemStateModel::predictBatch: empty history");

    // Epoch-snapshot serving hands every row of a shard the SAME
    // history window, and the window only changes when the Watcher
    // samples, so consecutive calls ask for the same forecasts.  Only
    // the windows the memo has not seen are scaled and forwarded, once
    // each; every op in the forward is row-independent (DESIGN.md
    // §9), so the gathered rows are bitwise identical to a row-per-row
    // stack.
    const ml::Matrix out = stateMemo.rows(
        histories,
        [this](const std::vector<const std::vector<ml::Matrix> *> &misses) {
            return targetScaler.inverseTransform(
                forwardBatch(stackScaled(inputScaler, misses)));
        });
    std::vector<ml::Matrix> rows(histories.size());
    for (std::size_t b = 0; b < rows.size(); ++b) {
        ml::Matrix row(1, out.cols());
        for (std::size_t e = 0; e < out.cols(); ++e)
            row.at(0, e) = out.at(b, e);
        rows[b] = std::move(row);
    }
    return rows;
}

SystemStateEvaluation
SystemStateModel::evaluate(
    const std::vector<scenario::SystemStateSample> &samples) const
{
    if (samples.empty())
        fatal("SystemStateModel::evaluate on empty set");

    std::vector<std::vector<double>> actual(kNumPerfEvents);
    std::vector<std::vector<double>> predicted(kNumPerfEvents);
    SystemStateEvaluation eval;
    forEachChunk(samples.size(), config.batchSize,
                 [&](std::size_t begin, std::size_t end) {
        std::vector<const std::vector<ml::Matrix> *> histories;
        histories.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i)
            histories.push_back(&samples[i].history);
        const std::vector<ml::Matrix> outs = predictBatch(histories);
        for (std::size_t i = begin; i < end; ++i) {
            const ml::Matrix &out = outs[i - begin];
            for (std::size_t e = 0; e < kNumPerfEvents; ++e) {
                actual[e].push_back(samples[i].target.at(0, e));
                predicted[e].push_back(out.at(0, e));
                eval.actual.push_back(samples[i].target.at(0, e));
                eval.predicted.push_back(out.at(0, e));
            }
        }
    });
    double total = 0.0;
    for (std::size_t e = 0; e < kNumPerfEvents; ++e) {
        const double r2 = stats::r2Score(actual[e], predicted[e]);
        eval.r2PerEvent.push_back(r2);
        total += r2;
    }
    eval.r2Average = total / static_cast<double>(kNumPerfEvents);
    return eval;
}

} // namespace adrias::models
