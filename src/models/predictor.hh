/**
 * @file
 * The Predictor component (paper §V-B): the stacked-model facade that
 * chains the system-state forecaster into the per-class performance
 * models, exposing exactly what the Orchestrator needs at deployment
 * time.
 */

#ifndef ADRIAS_MODELS_PREDICTOR_HH
#define ADRIAS_MODELS_PREDICTOR_HH

#include <memory>

#include "common/error.hh"
#include "common/io/binary.hh"
#include "models/performance.hh"
#include "models/system_state.hh"
#include "scenario/signature.hh"
#include "telemetry/watcher.hh"

namespace adrias::models
{

/**
 * What the Orchestrator needs from a prediction stack.  The production
 * implementation is Predictor; tests inject stubs to pin down the
 * decision rules exactly.
 */
class PredictorBase
{
  public:
    virtual ~PredictorBase() = default;

    /** Forecast mean counters over the horizon from live telemetry. */
    virtual ml::Matrix
    predictSystemState(const telemetry::Watcher &watcher) const = 0;

    /**
     * Predict an application's performance under a hypothetical mode
     * (execution time in seconds for BE, p99 in ms for LC).
     */
    virtual double
    predictPerformance(WorkloadClass cls,
                       const std::vector<ml::Matrix> &history,
                       const std::vector<ml::Matrix> &signature,
                       MemoryMode mode) const = 0;

    /** One row of a batched performance query (pointers borrowed). */
    struct PerfQuery
    {
        const std::vector<ml::Matrix> *history = nullptr;
        const std::vector<ml::Matrix> *signature = nullptr;
        MemoryMode mode = MemoryMode::Local;
    };

    /**
     * Batched predictPerformance over same-class queries: what every
     * placement decision issues (the inline orchestrator asks one
     * batched question per decision, the daemon one per batch).  The
     * base implementation loops over the single-row entry point, so
     * every PredictorBase (stubs included) serves batches; Predictor
     * overrides it with the fused single-forward fast-path and
     * GuardedPredictor with a one-admission batch gate.  Row i always
     * equals the corresponding single-row call.
     *
     * @return one prediction per query, input order.
     */
    virtual std::vector<double>
    predictPerformanceBatch(WorkloadClass cls,
                            const std::vector<PerfQuery> &queries) const;

    /** @return true once the stack is ready to serve predictions. */
    virtual bool trained() const = 0;
};

/** Design-time trained, run-time queried prediction stack. */
class Predictor : public PredictorBase
{
  public:
    /**
     * @param config shared model hyper-parameters.
     *
     * The performance models use FutureKind::Predicted — the paper's
     * best pragmatic variant {120, Ŝ} — i.e. they are trained on Ŝ
     * propagated from the system-state model.
     */
    explicit Predictor(ModelConfig config = {});

    /**
     * Offline phase: train all three models.
     *
     * @param state_samples system-state training set.
     * @param be_samples best-effort performance training set.
     * @param lc_samples latency-critical performance training set
     *        (may be empty; LC predictions then unavailable).
     */
    void train(const std::vector<scenario::SystemStateSample> &state_samples,
               const std::vector<scenario::PerformanceSample> &be_samples,
               const std::vector<scenario::PerformanceSample> &lc_samples);

    /** Forecast mean counters over the horizon from live telemetry. */
    ml::Matrix
    predictSystemState(const telemetry::Watcher &watcher) const override;

    /**
     * Predict an application's performance under a hypothetical mode:
     * a one-row predictPerformanceBatch() call.
     *
     * @param cls BestEffort (returns execution time, s) or
     *        LatencyCritical (returns p99, ms).
     * @param history Watcher window S at decision time.
     * @param signature application signature k.
     * @param mode hypothetical placement.
     */
    double
    predictPerformance(WorkloadClass cls,
                       const std::vector<ml::Matrix> &history,
                       const std::vector<ml::Matrix> &signature,
                       MemoryMode mode) const override;

    /**
     * Fused fast-path: one batched system-state forward for all
     * histories, then one batched performance forward — two network
     * evaluations per batch instead of two per query.  Both forwards
     * dedupe sequence pointers, so a BE decision's {Local, Remote}
     * pair runs S and k through their LSTMs once and only the head at
     * b2.
     */
    std::vector<double>
    predictPerformanceBatch(WorkloadClass cls,
                            const std::vector<PerfQuery> &queries)
        const override;

    const SystemStateModel &systemModel() const { return *system; }
    SystemStateModel &systemModel() { return *system; }
    const PerformanceModel &bestEffortModel() const { return *bestEffort; }
    // NOLINTNEXTLINE(unused-api): test seam for the LC model's memos.
    const PerformanceModel &latencyCriticalModel() const { return *lc; }

    bool trained() const override { return isTrained; }

    /**
     * Serialize the trained-model stack: flags, then each trained
     * model's saveState() payload (doubles as raw bit patterns, so a
     * restored stack predicts bit-identically).
     */
    void saveState(io::BinaryWriter &out) const;

    /**
     * Restore a payload written by saveState(), all-or-nothing: every
     * model's payload is decoded before any model commits, so on error
     * the models and the flags are unchanged.  The models keep their
     * addresses (systemModel() and friends stay valid).
     */
    [[nodiscard]] Result<void> restoreState(io::BinaryReader &in);

  private:
    std::unique_ptr<SystemStateModel> system;
    std::unique_ptr<PerformanceModel> bestEffort;
    std::unique_ptr<PerformanceModel> lc;
    bool isTrained = false;
    bool lcTrained = false;
};

} // namespace adrias::models

#endif // ADRIAS_MODELS_PREDICTOR_HH
