#include "models/performance.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
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

PerformanceModel::PerformanceModel(FutureKind future_, ModelConfig config)
    : future(future_), net(config, 2, 1 + futureWidth(), 1),
      signatureMemo("predictor.signature_memo", config.hidden),
      historyMemo("predictor.history_memo", config.hidden)
{
}

std::size_t
PerformanceModel::futureWidth() const
{
    return future == FutureKind::None ? 0 : kNumPerfEvents;
}

double
PerformanceModel::encodeTarget(double target) const
{
    if (!net.config().logTarget)
        return target;
    if (target <= 0.0)
        fatal("PerformanceModel: non-positive target with logTarget");
    return std::log(target);
}

double
PerformanceModel::decodeTarget(double encoded) const
{
    return net.config().logTarget ? std::exp(encoded) : encoded;
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
        forEachChunk(samples.size(), net.config().batchSize,
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
    ml::Matrix targets(samples.size(), 1);
    for (std::size_t i = 0; i < samples.size(); ++i)
        targets.at(i, 0) = encodeTarget(samples[i].target);
    net.fitScalers(sequences, targets);

    return fit(samples, system, net.config().epochs,
               net.config().learningRate);
}

double
PerformanceModel::fineTune(
    const std::vector<scenario::PerformanceSample> &samples,
    const SystemStateModel *system, std::size_t epochs)
{
    if (!net.trained())
        fatal("PerformanceModel::fineTune before train()");
    if (samples.empty())
        fatal("PerformanceModel::fineTune: no samples");
    // Scalers are deliberately kept from the original fit so the new
    // samples live in the same feature space; a reduced learning rate
    // avoids catastrophic drift away from the base model.
    return fit(samples, system, epochs, net.config().learningRate * 0.3);
}

double
PerformanceModel::fit(const std::vector<scenario::PerformanceSample> &samples,
                      const SystemStateModel *system, std::size_t epochs,
                      double learning_rate)
{
    // The weights (and, from train(), the scalers) change below.
    signatureMemo.clear();
    historyMemo.clear();

    // Pre-resolve the future vectors once (the Predicted variant runs
    // batched system-model forwards over the whole set).
    const std::vector<ml::Matrix> futures = resolveFutures(samples, system);

    return net.fit(samples.size(), epochs, learning_rate,
                   [&](std::span<const std::size_t> indices) {
        const ml::StandardScaler &counters = net.counterScaler();
        const std::size_t rows = indices.size();
        std::vector<const std::vector<ml::Matrix> *> histories, signatures;
        RecurrentRegressor::Batch batch;
        batch.columns = ml::Matrix(rows, 1 + futureWidth());
        batch.target = ml::Matrix(rows, 1);
        for (std::size_t row = 0; row < rows; ++row) {
            const auto &sample = samples[indices[row]];
            histories.push_back(&sample.history);
            signatures.push_back(&sample.signature);
            batch.columns.at(row, 0) =
                sample.mode == MemoryMode::Remote ? 1.0 : 0.0;
            if (futureWidth() > 0)
                counters.transformRow(futures[indices[row]], 0,
                                      &batch.columns.at(row, 1));
            batch.target.at(row, 0) = net.targetScaler().transformScalar(
                encodeTarget(sample.target), 0);
        }
        batch.sequences.push_back(stackScaled(counters, histories));
        batch.sequences.push_back(stackScaled(counters, signatures));
        return batch;
    });
}

std::string
PerformanceModel::payloadTag() const
{
    return "performance-model-v1 future=" + toString(future) +
           (net.config().logTarget ? " log" : "");
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
    if (!net.trained())
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
    const auto encoder = [this](std::size_t index) {
        return [this, index](const auto &misses) {
            return net.encode(index, misses);
        };
    };
    const ml::Matrix h_last = historyMemo.rows(histories, encoder(0));
    const ml::Matrix k_last = signatureMemo.rows(signatures, encoder(1));

    // The head input is assembled in a kept buffer, each future row
    // scaled straight into place, and the head runs on it in place.
    const std::size_t H = net.config().hidden;
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
            net.counterScaler().transformRow(*query.future, 0,
                                             &headInput.at(b, 2 * H + 1));
    }

    net.inferHead(headInput);
    std::vector<double> predictions(rows);
    for (std::size_t b = 0; b < rows; ++b)
        predictions[b] = decodeTarget(
            net.targetScaler().inverseTransformScalar(headInput.at(b, 0),
                                                      0));
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
    forEachChunk(samples.size(), net.config().batchSize,
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
