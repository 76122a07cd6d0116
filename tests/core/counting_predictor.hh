/**
 * @file
 * Training-free PredictorBase stub that records the shape of every
 * query the orchestrator issues: how many single-row calls, and for
 * each batched call its rows (mode, which distinct history and
 * signature each row points at, and a copy of every distinct window).
 */

#ifndef ADRIAS_TESTS_CORE_COUNTING_PREDICTOR_HH
#define ADRIAS_TESTS_CORE_COUNTING_PREDICTOR_HH

#include <algorithm>
#include <vector>

#include "models/predictor.hh"
#include "scenario/runner.hh"
#include "testbed/counters.hh"

namespace adrias::core
{

/** Fixed predictions: every Local row 100, every Remote row 90. */
class CountingPredictor : public models::PredictorBase
{
  public:
    /** One predictPerformanceBatch() call as the stub saw it. */
    struct BatchCall
    {
        WorkloadClass cls = WorkloadClass::BestEffort;
        std::vector<MemoryMode> modes;

        /** Per row: index of its history in `histories`. */
        std::vector<std::size_t> historySlot;

        /** Distinct history windows, first-seen order (copies). */
        std::vector<std::vector<ml::Matrix>> histories;

        /** Distinct signature pointers, first-seen order. */
        std::vector<const std::vector<ml::Matrix> *> signatures;
    };

    static constexpr double kLocal = 100.0;
    static constexpr double kRemote = 90.0;

    ml::Matrix
    predictSystemState(const telemetry::Watcher &) const override
    {
        return ml::Matrix(1, testbed::kNumPerfEvents);
    }

    double
    predictPerformance(WorkloadClass, const std::vector<ml::Matrix> &,
                       const std::vector<ml::Matrix> &,
                       MemoryMode mode) const override
    {
        ++singleCalls;
        return predictionFor(mode);
    }

    std::vector<double>
    predictPerformanceBatch(WorkloadClass cls,
                            const std::vector<PerfQuery> &queries)
        const override
    {
        BatchCall call;
        call.cls = cls;
        std::vector<const std::vector<ml::Matrix> *> seen;
        std::vector<double> out;
        for (const PerfQuery &query : queries) {
            call.modes.push_back(query.mode);
            const auto it =
                std::find(seen.begin(), seen.end(), query.history);
            call.historySlot.push_back(
                static_cast<std::size_t>(it - seen.begin()));
            if (it == seen.end()) {
                seen.push_back(query.history);
                call.histories.push_back(*query.history);
            }
            if (std::find(call.signatures.begin(), call.signatures.end(),
                          query.signature) == call.signatures.end())
                call.signatures.push_back(query.signature);
            out.push_back(predictionFor(query.mode));
        }
        batches.push_back(std::move(call));
        return out;
    }

    bool trained() const override { return true; }

    mutable std::size_t singleCalls = 0;
    mutable std::vector<BatchCall> batches;

  private:
    static double
    predictionFor(MemoryMode mode)
    {
        return mode == MemoryMode::Local ? kLocal : kRemote;
    }
};

/** @return true when two windows hold bitwise-equal matrices. */
inline bool
sameWindow(const std::vector<ml::Matrix> &a,
           const std::vector<ml::Matrix> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t t = 0; t < a.size(); ++t)
        if (a[t].rows() != b[t].rows() || a[t].raw() != b[t].raw())
            return false;
    return true;
}

/** @return the decision-time window the orchestrator queries with. */
inline std::vector<ml::Matrix>
decisionWindow(const telemetry::Watcher &watcher)
{
    return watcher.binnedWindow(scenario::ScenarioRunner::kWindowSec,
                                scenario::ScenarioRunner::kWindowBins);
}

} // namespace adrias::core

#endif // ADRIAS_TESTS_CORE_COUNTING_PREDICTOR_HH
