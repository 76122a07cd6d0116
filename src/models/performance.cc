#include "models/performance.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

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

std::string
toString(FutureKind kind)
{
    switch (kind) {
      case FutureKind::None:
        return "None";
      case FutureKind::ActualWindow:
        return "120";
      case FutureKind::ActualExec:
        return "exec";
      case FutureKind::Predicted:
        return "S^";
    }
    panic("unknown FutureKind");
}

PerformanceModel::PerformanceModel(FutureKind future_, ModelConfig config_)
    : future(future_), config(config_), rng(config_.seed),
      signatureMemo("predictor.signature_memo", config_.hidden),
      historyMemo("predictor.history_memo", config_.hidden)
{
    historyLstm1 =
        std::make_unique<ml::Lstm>(kNumPerfEvents, config.hidden, rng);
    historyLstm2 =
        std::make_unique<ml::Lstm>(config.hidden, config.hidden, rng);
    signatureLstm1 =
        std::make_unique<ml::Lstm>(kNumPerfEvents, config.hidden, rng);
    signatureLstm2 =
        std::make_unique<ml::Lstm>(config.hidden, config.hidden, rng);
    const std::size_t head_input =
        2 * config.hidden + 1 + futureWidth();
    head = ml::makeNonLinearHead(head_input, config.headWidth, 1,
                                 config.dropout, rng, config.headNorm);
}

std::size_t
PerformanceModel::futureWidth() const
{
    return future == FutureKind::None ? 0 : kNumPerfEvents;
}

double
PerformanceModel::encodeTarget(double target) const
{
    if (!config.logTarget)
        return target;
    if (target <= 0.0)
        fatal("PerformanceModel: non-positive target with logTarget");
    return std::log(target);
}

double
PerformanceModel::decodeTarget(double encoded) const
{
    return config.logTarget ? std::exp(encoded) : encoded;
}

std::vector<ml::Param *>
PerformanceModel::params() const
{
    std::vector<ml::Param *> all;
    for (ml::Lstm *lstm : {historyLstm1.get(), historyLstm2.get(),
                           signatureLstm1.get(), signatureLstm2.get()})
        for (ml::Param *p : lstm->params())
            all.push_back(p);
    for (ml::Param *p : head->params())
        all.push_back(p);
    return all;
}

std::vector<ml::Matrix>
PerformanceModel::resolveFutures(
    const std::vector<scenario::PerformanceSample> &samples,
    const SystemStateModel *system) const
{
    std::vector<ml::Matrix> futures(samples.size());
    switch (future) {
      case FutureKind::None:
        break;
      case FutureKind::ActualWindow:
        for (std::size_t i = 0; i < samples.size(); ++i)
            futures[i] = samples[i].futureWindow;
        break;
      case FutureKind::ActualExec:
        for (std::size_t i = 0; i < samples.size(); ++i)
            futures[i] = samples[i].futureExec;
        break;
      case FutureKind::Predicted:
        if (!system || !system->trained())
            fatal("FutureKind::Predicted needs a trained system model");
        forEachChunk(samples.size(), config.batchSize,
                     [&](std::size_t begin, std::size_t end) {
            std::vector<const std::vector<ml::Matrix> *> histories;
            histories.reserve(end - begin);
            for (std::size_t i = begin; i < end; ++i)
                histories.push_back(&samples[i].history);
            std::vector<ml::Matrix> chunk = system->predictBatch(histories);
            std::move(chunk.begin(), chunk.end(), futures.begin() + begin);
        });
        break;
    }
    return futures;
}

ml::Matrix
PerformanceModel::forwardBatch(const std::vector<ml::Matrix> &history,
                               const std::vector<ml::Matrix> &signature,
                               const ml::Matrix &mode_col,
                               const ml::Matrix &future_rows) const
{
    const auto h1 = historyLstm1->forwardSequence(history);
    const auto h2 = historyLstm2->forwardSequence(h1);
    const auto k1 = signatureLstm1->forwardSequence(signature);
    const auto k2 = signatureLstm2->forwardSequence(k1);

    ml::Matrix hidden = h2.back().hconcat(k2.back()).hconcat(mode_col);
    if (futureWidth() > 0)
        hidden = hidden.hconcat(future_rows);
    return head->forward(hidden);
}

void
PerformanceModel::backwardBatch(const ml::Matrix &grad_output,
                                std::size_t batch_rows) const
{
    const ml::Matrix grad_hidden = head->backward(grad_output);
    const std::size_t H = config.hidden;

    // Gradients w.r.t. mode and future inputs are discarded — they are
    // inputs, not parameters — and so are the first LSTM layers', which
    // are not computed at all.  The two LSTM-branch slices land directly
    // in their sequence slots (no intermediate copies).
    const std::size_t bins = scenario::ScenarioRunner::kWindowBins;
    std::vector<ml::Matrix> grad_h2(bins, ml::Matrix(batch_rows, H));
    grad_hidden.colRangeInto(0, H, grad_h2.back());
    historyLstm1->backwardSequence(historyLstm2->backwardSequence(grad_h2),
                                   ml::Lstm::InputGrad::Skip);

    std::vector<ml::Matrix> grad_k2(bins, ml::Matrix(batch_rows, H));
    grad_hidden.colRangeInto(H, 2 * H, grad_k2.back());
    signatureLstm1->backwardSequence(
        signatureLstm2->backwardSequence(grad_k2), ml::Lstm::InputGrad::Skip);
}

double
PerformanceModel::train(
    const std::vector<scenario::PerformanceSample> &samples,
    const SystemStateModel *system)
{
    if (samples.size() < 4)
        fatal("PerformanceModel::train: too few samples");

    // Counter scaler pooled over histories and signatures (same units).
    std::vector<std::vector<ml::Matrix>> sequences;
    for (const auto &sample : samples) {
        sequences.push_back(sample.history);
        sequences.push_back(sample.signature);
    }
    counterScaler.fitSequences(sequences);

    ml::Matrix targets(samples.size(), 1);
    for (std::size_t i = 0; i < samples.size(); ++i)
        targets.at(i, 0) = encodeTarget(samples[i].target);
    targetScaler.fit(targets);

    return fitLoop(samples, system, config.epochs, config.learningRate);
}

double
PerformanceModel::fineTune(
    const std::vector<scenario::PerformanceSample> &samples,
    const SystemStateModel *system, std::size_t epochs)
{
    if (!isTrained)
        fatal("PerformanceModel::fineTune before train()");
    if (samples.empty())
        fatal("PerformanceModel::fineTune: no samples");
    // Scalers are deliberately kept from the original fit so the new
    // samples live in the same feature space; a reduced learning rate
    // avoids catastrophic drift away from the base model.
    return fitLoop(samples, system, epochs, config.learningRate * 0.3);
}

double
PerformanceModel::fitLoop(
    const std::vector<scenario::PerformanceSample> &samples,
    const SystemStateModel *system, std::size_t epochs,
    double learning_rate)
{
    // The weights (and, from train(), the scalers) change below.
    signatureMemo.clear();
    historyMemo.clear();

    // Pre-resolve the future vectors once (the Predicted variant runs
    // batched system-model forwards over the whole set).
    const std::vector<ml::Matrix> futures = resolveFutures(samples, system);

    auto parameters = params();
    ml::Adam optimizer(parameters, learning_rate);
    head->setTraining(true);
    head->setInference(false);
    for (ml::Lstm *lstm : {historyLstm1.get(), historyLstm2.get(),
                           signatureLstm1.get(), signatureLstm2.get()})
        lstm->setInference(false);

    std::vector<std::size_t> order(samples.size());
    std::iota(order.begin(), order.end(), std::size_t{0});

    double epoch_loss = 0.0;
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
        rng.shuffle(order);
        epoch_loss = 0.0;
        std::size_t batches = 0;
        for (std::size_t begin = 0; begin < order.size();
             begin += config.batchSize) {
            const std::size_t end =
                std::min(order.size(), begin + config.batchSize);
            const std::size_t rows = end - begin;

            std::vector<const std::vector<ml::Matrix> *> histories,
                signatures;
            ml::Matrix mode_col(rows, 1);
            ml::Matrix future_rows(rows, futureWidth());
            ml::Matrix target(rows, 1);
            for (std::size_t i = begin; i < end; ++i) {
                const auto &sample = samples[order[i]];
                const std::size_t row = i - begin;
                histories.push_back(&sample.history);
                signatures.push_back(&sample.signature);
                mode_col.at(row, 0) =
                    sample.mode == MemoryMode::Remote ? 1.0 : 0.0;
                if (futureWidth() > 0)
                    counterScaler.transformRow(futures[order[i]], 0,
                                               &future_rows.at(row, 0));
                target.at(row, 0) = targetScaler.transformScalar(
                    encodeTarget(sample.target), 0);
            }

            optimizer.zeroGrad();
            const ml::Matrix prediction =
                forwardBatch(stackScaled(counterScaler, histories),
                             stackScaled(counterScaler, signatures),
                             mode_col, future_rows);
            ml::Matrix grad;
            epoch_loss += ml::mseLoss(prediction, target, &grad);
            ++batches;
            backwardBatch(grad, rows);
            optimizer.clipGradNorm(config.gradClip);
            optimizer.step();
        }
        epoch_loss /= static_cast<double>(std::max<std::size_t>(1, batches));
    }

    // Training is done with the LSTMs: the stats pass and everything
    // after only runs forward, so skip their BPTT caches.
    for (ml::Lstm *lstm : {historyLstm1.get(), historyLstm2.get(),
                           signatureLstm1.get(), signatureLstm2.get()})
        lstm->setInference(true);

    // Replace BatchNorm running statistics with exact population
    // statistics (clean pass over the training set, no updates).  A
    // head without such statistics (HeadNorm::Layer) skips the pass:
    // it would update nothing and only draw Dropout masks.
    if (!head->stateTensors().empty()) {
        head->beginStatsEstimation();
        for (std::size_t begin = 0; begin < samples.size();
             begin += config.batchSize) {
            const std::size_t end =
                std::min(samples.size(), begin + config.batchSize);
            const std::size_t rows = end - begin;
            std::vector<const std::vector<ml::Matrix> *> histories,
                signatures;
            ml::Matrix mode_col(rows, 1);
            ml::Matrix future_rows(rows, futureWidth());
            for (std::size_t i = begin; i < end; ++i) {
                const auto &sample = samples[i];
                const std::size_t row = i - begin;
                histories.push_back(&sample.history);
                signatures.push_back(&sample.signature);
                mode_col.at(row, 0) =
                    sample.mode == MemoryMode::Remote ? 1.0 : 0.0;
                if (futureWidth() > 0)
                    counterScaler.transformRow(futures[i], 0,
                                               &future_rows.at(row, 0));
            }
            forwardBatch(stackScaled(counterScaler, histories),
                         stackScaled(counterScaler, signatures), mode_col,
                         future_rows);
        }
        head->endStatsEstimation();
    }

    head->setTraining(false);
    head->setInference(true);
    isTrained = true;
    return epoch_loss;
}

std::string
PerformanceModel::payloadTag() const
{
    return "performance-model-v1 future=" + toString(future) +
           (config.logTarget ? " log" : "");
}

void
PerformanceModel::saveState(io::BinaryWriter &out) const
{
    if (!isTrained)
        fatal("PerformanceModel::save before train()");
    out.writeString(payloadTag());
    ml::saveParams(out, params());
    ml::saveStateTensors(out, head->stateTensors());
    ml::saveScaler(out, counterScaler);
    ml::saveScaler(out, targetScaler);
    rng.saveState(out);
}

Result<void>
PerformanceModel::restoreState(io::BinaryReader &in)
{
    if (Result<void> header = in.expectTag(payloadTag()); !header)
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
    Result<ml::StandardScaler> counters =
        ml::loadScaler(in, kNumPerfEvents);
    if (!counters)
        return counters.error();
    Result<ml::StandardScaler> target = ml::loadScaler(in, 1);
    if (!target)
        return target.error();
    Rng stream;
    stream.restoreState(in);
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "PerformanceModel: truncated payload");

    for (std::size_t i = 0; i < parameters.size(); ++i)
        parameters[i]->value = std::move(values.value()[i]);
    for (std::size_t i = 0; i < state.size(); ++i)
        *state[i] = std::move(norms.value()[i]);
    counterScaler = std::move(counters.value());
    targetScaler = std::move(target.value());
    rng = stream;
    signatureMemo.clear();
    historyMemo.clear();
    head->setTraining(false);
    // A restored model only predicts until fineTune(), which
    // re-enables training mode itself.
    head->setInference(true);
    for (ml::Lstm *lstm : {historyLstm1.get(), historyLstm2.get(),
                           signatureLstm1.get(), signatureLstm2.get()})
        lstm->setInference(true);
    isTrained = true;
    return {};
}

void
PerformanceModel::save(const std::string &path) const
{
    io::BinaryWriter out;
    saveState(out);
    io::atomicWriteFile(path, out.data()).expect();
}

Result<void>
PerformanceModel::load(const std::string &path)
{
    const Result<std::string> content = io::readFile(path);
    if (!content)
        return content.error();
    io::BinaryReader in(content.value());
    if (Result<void> restored = restoreState(in); !restored)
        return restored;
    return in.status();
}

double
PerformanceModel::predict(const std::vector<ml::Matrix> &history,
                          const std::vector<ml::Matrix> &signature,
                          MemoryMode mode, const ml::Matrix &future_vec) const
{
    return predictBatch({{&history, &signature, mode, &future_vec}})
        .front();
}

std::vector<double>
PerformanceModel::predictBatch(const std::vector<Query> &queries) const
{
    if (!isTrained)
        fatal("PerformanceModel::predictBatch before train()");
    if (queries.empty())
        fatal("PerformanceModel::predictBatch on empty batch");

    const std::size_t rows = queries.size();
    std::vector<const std::vector<ml::Matrix> *> histories(rows),
        signatures(rows);
    for (std::size_t b = 0; b < rows; ++b) {
        const Query &query = queries[b];
        if (query.history == nullptr || query.history->empty() ||
            query.signature == nullptr || query.signature->empty())
            fatal("PerformanceModel::predictBatch needs history and "
                  "signature");
        if (futureWidth() > 0 &&
            (query.future == nullptr || query.future->empty()))
            fatal("PerformanceModel::predictBatch: this model needs a "
                  "future vector");
        histories[b] = query.history;
        signatures[b] = query.signature;
    }

    // Each branch encodes only what its memo has not seen: under epoch
    // snapshots the history is per-shard and the signature per-app, so
    // a serving batch holds a handful of distinct sequences per branch
    // and consecutive batches share them.  The misses are scaled and
    // forwarded together; every branch op is row-independent
    // (DESIGN.md §9), so the gathered rows are bitwise identical to
    // stacking one row per query.
    const auto encoder = [this](ml::Lstm &layer1, ml::Lstm &layer2) {
        return [this, &layer1, &layer2](
                   const std::vector<const std::vector<ml::Matrix> *>
                       &misses) {
            auto last = layer2.forwardSequence(layer1.forwardSequence(
                stackScaled(counterScaler, misses)));
            return std::move(last.back());
        };
    };
    const ml::Matrix h_last = historyMemo.rows(
        histories, encoder(*historyLstm1, *historyLstm2));
    const ml::Matrix k_last = signatureMemo.rows(
        signatures, encoder(*signatureLstm1, *signatureLstm2));

    // The head input is assembled in a kept buffer, each future row
    // scaled straight into place, and the head runs on it in place.
    const std::size_t H = config.hidden;
    headInput.resizeForOverwrite(rows, 2 * H + 1 + futureWidth());
    for (std::size_t b = 0; b < rows; ++b) {
        const Query &query = queries[b];
        for (std::size_t j = 0; j < H; ++j) {
            headInput.at(b, j) = h_last.at(b, j);
            headInput.at(b, H + j) = k_last.at(b, j);
        }
        headInput.at(b, 2 * H) =
            query.mode == MemoryMode::Remote ? 1.0 : 0.0;
        if (futureWidth() > 0)
            counterScaler.transformRow(*query.future, 0,
                                       &headInput.at(b, 2 * H + 1));
    }

    head->inferInPlace(headInput);
    std::vector<double> predictions(rows);
    for (std::size_t b = 0; b < rows; ++b)
        predictions[b] = decodeTarget(
            targetScaler.inverseTransformScalar(headInput.at(b, 0), 0));
    return predictions;
}

PerformanceEvaluation
PerformanceModel::evaluate(
    const std::vector<scenario::PerformanceSample> &samples,
    const SystemStateModel *system) const
{
    if (samples.empty())
        fatal("PerformanceModel::evaluate on empty set");

    PerformanceEvaluation eval;
    std::vector<double> actual_local, pred_local;
    std::vector<double> actual_remote, pred_remote;
    std::map<std::string, std::vector<double>> errors_per_app;

    const std::vector<ml::Matrix> futures = resolveFutures(samples, system);
    std::vector<double> predictions;
    predictions.reserve(samples.size());
    forEachChunk(samples.size(), config.batchSize,
                 [&](std::size_t begin, std::size_t end) {
        std::vector<Query> rows;
        rows.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i)
            rows.push_back({&samples[i].history, &samples[i].signature,
                            samples[i].mode, &futures[i]});
        const std::vector<double> chunk = predictBatch(rows);
        predictions.insert(predictions.end(), chunk.begin(), chunk.end());
    });

    for (std::size_t i = 0; i < samples.size(); ++i) {
        const auto &sample = samples[i];
        const double prediction = predictions[i];
        eval.actual.push_back(sample.target);
        eval.predicted.push_back(prediction);
        errors_per_app[sample.name].push_back(
            std::fabs(sample.target - prediction));
        if (sample.mode == MemoryMode::Local) {
            actual_local.push_back(sample.target);
            pred_local.push_back(prediction);
        } else {
            actual_remote.push_back(sample.target);
            pred_remote.push_back(prediction);
        }
    }

    eval.r2 = stats::r2Score(eval.actual, eval.predicted);
    eval.mae = stats::meanAbsoluteError(eval.actual, eval.predicted);
    if (actual_local.size() >= 2)
        eval.r2Local = stats::r2Score(actual_local, pred_local);
    if (actual_remote.size() >= 2)
        eval.r2Remote = stats::r2Score(actual_remote, pred_remote);
    for (const auto &[name, errors] : errors_per_app) {
        double total = 0.0;
        for (double e : errors)
            total += e;
        eval.maePerApp[name] =
            total / static_cast<double>(errors.size());
    }
    return eval;
}

} // namespace adrias::models
