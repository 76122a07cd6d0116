#include "models/predictor.hh"

#include <utility>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "scenario/runner.hh"

namespace adrias::models
{

std::vector<double>
PredictorBase::predictPerformanceBatch(
    WorkloadClass cls, const std::vector<PerfQuery> &queries) const
{
    // Reference semantics for every batched implementation: the loop
    // over the single-row entry point, in input order.
    std::vector<double> predictions;
    predictions.reserve(queries.size());
    for (const PerfQuery &query : queries) {
        if (query.history == nullptr || query.signature == nullptr)
            fatal("predictPerformanceBatch: null query row");
        predictions.push_back(predictPerformance(
            cls, *query.history, *query.signature, query.mode));
    }
    return predictions;
}

Predictor::Predictor(ModelConfig config)
{
    system = std::make_unique<SystemStateModel>(config);
    ModelConfig perf_config = config;
    perf_config.seed = config.seed + 1;
    bestEffort = std::make_unique<PerformanceModel>(FutureKind::Predicted,
                                                    perf_config);
    perf_config.seed = config.seed + 2;
    lc = std::make_unique<PerformanceModel>(FutureKind::Predicted,
                                            perf_config);
}

void
Predictor::train(
    const std::vector<scenario::SystemStateSample> &state_samples,
    const std::vector<scenario::PerformanceSample> &be_samples,
    const std::vector<scenario::PerformanceSample> &lc_samples)
{
    system->train(state_samples);
    bestEffort->train(be_samples, system.get());
    if (lc_samples.size() >= 4) {
        lc->train(lc_samples, system.get());
        lcTrained = true;
    } else {
        logWarn("Predictor: too few LC samples; LC model not trained");
    }
    isTrained = true;
}

ml::Matrix
Predictor::predictSystemState(const telemetry::Watcher &watcher) const
{
#if ADRIAS_OBS_ENABLED
    obs::WallSpan infer_span("infer_system_state", "predictor");
#endif
    if (!isTrained)
        fatal("Predictor::predictSystemState before train()");
    const auto window = watcher.binnedWindow(
        scenario::ScenarioRunner::kWindowSec,
        scenario::ScenarioRunner::kWindowBins);
    return system->predict(window);
}

double
Predictor::predictPerformance(WorkloadClass cls,
                              const std::vector<ml::Matrix> &history,
                              const std::vector<ml::Matrix> &signature,
                              MemoryMode mode) const
{
    return predictPerformanceBatch(cls, {{&history, &signature, mode}})
        .front();
}

std::vector<double>
Predictor::predictPerformanceBatch(
    WorkloadClass cls, const std::vector<PerfQuery> &queries) const
{
    if (!isTrained)
        fatal("Predictor::predictPerformanceBatch before train()");
    if (queries.empty())
        return {};
#if ADRIAS_OBS_ENABLED
    obs::WallSpan infer_span("infer_performance_batch", "predictor");
    if (obs::enabled()) {
        static obs::Counter &inferences =
            obs::MetricsRegistry::global().counter(
                "predictor.inferences");
        inferences.add(queries.size());
    }
#endif
    PerformanceModel *model = nullptr;
    switch (cls) {
      case WorkloadClass::BestEffort:
        model = bestEffort.get();
        break;
      case WorkloadClass::LatencyCritical:
        if (!lcTrained)
            fatal("Predictor: LC model was not trained");
        model = lc.get();
        break;
      case WorkloadClass::Interference:
        fatal("Predictor: no performance model for trashers");
    }

    // One fused system-state forward over all histories...
    std::vector<const std::vector<ml::Matrix> *> histories;
    histories.reserve(queries.size());
    for (const PerfQuery &query : queries) {
        if (query.history == nullptr || query.signature == nullptr)
            fatal("Predictor::predictPerformanceBatch: null query row");
        histories.push_back(query.history);
    }
    const std::vector<ml::Matrix> futures =
        system->predictBatch(histories);

    // ... then one fused performance forward over all queries.
    std::vector<PerformanceModel::Query> rows;
    rows.reserve(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
        rows.push_back({queries[i].history, queries[i].signature,
                        queries[i].mode, &futures[i]});
    return model->predictBatch(rows);
}

void
Predictor::saveState(io::BinaryWriter &out) const
{
    out.writeBool(isTrained);
    out.writeBool(lcTrained);
    if (!isTrained)
        return;
    system->saveState(out);
    bestEffort->saveState(out);
    if (lcTrained)
        lc->saveState(out);
}

Result<void>
Predictor::restoreState(io::BinaryReader &in)
{
    const bool trainedFlag = in.readBool();
    const bool lcFlag = in.readBool();
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "Predictor: truncated snapshot flags");
    if (!trainedFlag) {
        if (lcFlag)
            return makeError(ErrorCode::BadNumber,
                             "Predictor: LC trained without base stack");
        isTrained = false;
        lcTrained = false;
        return {};
    }
    // Every model decodes before any commits, so a payload that fails
    // inside the BE or LC section leaves the whole stack unchanged.
    auto state = system->decodeState(in);
    if (!state)
        return state.error();
    auto be = bestEffort->decodeState(in);
    if (!be)
        return be.error();
    auto latency =
        lcFlag ? lc->decodeState(in) : RecurrentRegressor::Payload();
    if (!latency)
        return latency.error();
    system->restoreState(std::move(state)).expect();
    bestEffort->restoreState(std::move(be)).expect();
    if (lcFlag)
        lc->restoreState(std::move(latency)).expect();
    isTrained = true;
    lcTrained = lcFlag;
    return {};
}

} // namespace adrias::models
