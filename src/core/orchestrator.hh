/**
 * @file
 * The Adrias Orchestrator (paper §V-C): the interference-aware
 * placement policy that queries the Predictor and applies the paper's
 * decision rules —
 *
 *   BE:  local  iff  t̂_local < β · t̂_remote
 *   LC:  remote iff  p̂99_remote ≤ QoS
 *
 * Applications without a stored signature are bootstrapped on remote
 * memory and their signature is captured from their execution window.
 *
 * Each decision asks the Predictor one question: a BE decision is one
 * predictPerformanceBatch() over {Local, Remote} sharing one history
 * window and one signature (so S, Ŝ and k are encoded once), an LC
 * decision one single-row remote query.
 */

#ifndef ADRIAS_CORE_ORCHESTRATOR_HH
#define ADRIAS_CORE_ORCHESTRATOR_HH

#include <map>
#include <string>

#include "common/io/checkpoint_annotations.hh"
#include "models/guard.hh"
#include "models/predictor.hh"
#include "scenario/placement.hh"
#include "scenario/signature.hh"
#include "telemetry/watcher.hh"

namespace adrias::core
{

/** Policy knobs of the orchestrator. */
struct AdriasConfig
{
    /**
     * Slack β for best-effort apps: the performance-loss margin we
     * accept to leverage remote memory (paper sweeps 1.0 … 0.6).
     */
    double beta = 0.8;

    /** QoS constraint on predicted p99, ms, per LC application name. */
    std::map<std::string, double> qosP99Ms;

    /** Fallback QoS when an LC app has no explicit entry. */
    double defaultQosP99Ms = 1.0;

    /**
     * Degraded-mode placement when the prediction path is
     * unavailable.  BE apps take the paper's bootstrap default
     * (remote); LC apps take the QoS-conservative choice (local).
     */
    MemoryMode degradedBeMode = MemoryMode::Remote;
    MemoryMode degradedLcMode = MemoryMode::Local;
};

/** Per-run decision statistics. */
struct OrchestratorStats
{
    std::size_t localPlacements = 0;
    std::size_t remotePlacements = 0;
    std::size_t bootstrapPlacements = 0; ///< unknown-app remote runs

    /** Decisions served by the heuristic fallback (degraded mode). */
    std::size_t fallbackPlacements = 0;

    /** Prediction attempts that raised PredictionUnavailable. */
    std::size_t predictionFailures = 0;

    /** Merged from the guard's breaker (0 without a guard). */
    std::size_t breakerTrips = 0;
    std::size_t breakerRecoveries = 0;

    /** Merged from the Watcher seen at the last decision. */
    std::size_t samplesRepaired = 0;
    std::size_t samplesDropped = 0;
};

/** Interference-aware memory orchestrator. */
class AdriasOrchestrator : public scenario::PlacementPolicy
{
  public:
    /**
     * @param predictor trained prediction stack (borrowed).
     * @param signatures signature registry (borrowed; grows as unknown
     *        apps are bootstrapped).
     * @param config policy knobs.
     */
    AdriasOrchestrator(const models::PredictorBase &predictor,
                       scenario::SignatureStore &signatures,
                       AdriasConfig config = {});

    /**
     * Guarded variant: decisions flow through the guard's breaker and
     * deadline, and prediction failures fall back to the heuristic
     * degraded-mode policy instead of crashing the placement loop.
     */
    AdriasOrchestrator(models::GuardedPredictor &guard,
                       scenario::SignatureStore &signatures,
                       AdriasConfig config = {});

    std::string name() const override;

    MemoryMode place(const workloads::WorkloadSpec &spec,
                     const telemetry::Watcher &watcher,
                     SimTime now) override;

    void onCompletion(const scenario::DeploymentRecord &record) override;

    /** Decision tallies, with breaker and telemetry-repair counters
     *  merged in when a guard is attached. */
    OrchestratorStats stats() const;

    const AdriasConfig &config() const { return policy; }

    /** @return true while the prediction path is degraded (guarded
     *  variant only; false without a guard). */
    bool degraded() const;

    /** QoS threshold applied to one LC application. */
    double qosFor(const std::string &name) const;

    /**
     * The paper's BE decision rule (§V-C): local iff
     * t̂_local < β · t̂_remote.  Shared by the single-node place(),
     * the cluster orchestrator and the DecisionService so batched and
     * inline decisions can never diverge on the rule itself.
     */
    static MemoryMode
    decideBestEffort(double t_local, double t_remote, double beta)
    {
        return t_local < beta * t_remote ? MemoryMode::Local
                                         : MemoryMode::Remote;
    }

    /** The paper's LC decision rule: remote iff p̂99_remote ≤ QoS. */
    static MemoryMode
    decideLatencyCritical(double p99_remote, double qos)
    {
        return p99_remote <= qos ? MemoryMode::Remote
                                 : MemoryMode::Local;
    }

    /**
     * Serialize the decision tallies, last-seen watcher health and the
     * (borrowed, bootstrap-grown) signature store.  The guard — when
     * attached — checkpoints separately under its own tag.
     */
    void saveState(io::BinaryWriter &out) const;

    /** Restore a payload written by saveState(). */
    [[nodiscard]] Result<void> restoreState(io::BinaryReader &in);

  private:
    const models::PredictorBase *predictor ADRIAS_NOT_CHECKPOINTED(
        "borrowed model wiring, re-attached at construction");
    models::GuardedPredictor *guard ADRIAS_NOT_CHECKPOINTED(
        "the guard checkpoints separately under its own tag") = nullptr;
    scenario::SignatureStore *signatures;
    AdriasConfig policy ADRIAS_NOT_CHECKPOINTED(
        "construction-time configuration, re-supplied on restore");
    OrchestratorStats decisionStats;
    telemetry::WatcherHealth lastWatcherHealth;

    /** Heuristic placement used when predictions are unavailable. */
    MemoryMode fallbackPlacement(const workloads::WorkloadSpec &spec);
};

} // namespace adrias::core

#endif // ADRIAS_CORE_ORCHESTRATOR_HH
