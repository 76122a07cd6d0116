#include "models/system_state.hh"

#include <utility>

#include "common/logging.hh"
#include "models/batching.hh"
#include "stats/regression_metrics.hh"
#include "testbed/counters.hh"

namespace adrias::models
{

using testbed::kNumPerfEvents;

SystemStateModel::SystemStateModel(ModelConfig config)
    : net(config, 1, 0, kNumPerfEvents),
      stateMemo("predictor.state_memo", kNumPerfEvents)
{
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
    std::vector<const ml::Matrix *> targets;
    sequences.reserve(samples.size());
    for (const auto &sample : samples) {
        sequences.push_back(sample.history);
        targets.push_back(&sample.target);
    }
    net.fitScalers(sequences, stackRows(targets));

    const ModelConfig &config = net.config();
    return net.fit(samples.size(), config.epochs, config.learningRate,
                   [this, &samples](std::span<const std::size_t> indices) {
        std::vector<const std::vector<ml::Matrix> *> histories;
        std::vector<const ml::Matrix *> batch_targets;
        for (std::size_t i : indices) {
            histories.push_back(&samples[i].history);
            batch_targets.push_back(&samples[i].target);
        }
        RecurrentRegressor::Batch batch;
        batch.sequences.push_back(stackScaled(net.counterScaler(), histories));
        batch.target = net.targetScaler().transform(stackRows(batch_targets));
        return batch;
    });
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
    if (!net.trained())
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
            ml::Matrix forecast = net.encode(0, misses);
            net.inferHead(forecast);
            return net.targetScaler().inverseTransform(forecast);
        });
    std::vector<ml::Matrix> rows;
    rows.reserve(histories.size());
    for (std::size_t b = 0; b < histories.size(); ++b)
        rows.push_back(out.row(b));
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
    forEachChunk(samples.size(), net.config().batchSize,
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
