/**
 * @file
 * The decision core: the paper's placement rules (§V-C), written once
 * for the inline AdriasOrchestrator and the batched DecisionService —
 *
 *   BE:  local  iff  t̂_local < β · t̂_remote
 *   LC:  remote iff  p̂99_remote ≤ QoS
 *
 * An application without a stored signature bootstraps on remote
 * memory (captureSignature() stores one from that run); with no warm
 * node the decision is local; a failed prediction takes the configured
 * degraded mode.  Across nodes the best prediction wins and near-ties
 * (kIsoMargin) go to the least-loaded node.
 *
 * decide() answers a batch of requests, each against its own node set,
 * with one guard admission and one predictPerformanceBatch() per class.
 * It asks only for the rows its rule reads: per warm node the Remote
 * row, plus the Local row for BE, and for LC only when two or more
 * nodes are warm (the safest-local fallback then compares them).  Rows
 * are computed independently (DESIGN.md §9), so a row's bits do not
 * depend on what else shares its batch.
 */

#ifndef ADRIAS_CORE_DECISION_CORE_HH
#define ADRIAS_CORE_DECISION_CORE_HH

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "models/guard.hh"
#include "models/predictor.hh"
#include "scenario/placement.hh"
#include "scenario/signature.hh"

namespace adrias::core
{

/** Policy knobs of the decision rules. */
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

/** Which rule produced a decision. */
enum class DecisionPath : std::uint8_t
{
    Model,     ///< predicted, paper decision rules
    Bootstrap, ///< unknown app: remote, capture signature
    Cold,      ///< no warm node: conventional local
    Fallback,  ///< prediction path sick: degraded-mode heuristic
};

/** @return human-readable name of a decision path. */
std::string toString(DecisionPath path);

/** One node as a decision sees it. */
struct NodeState
{
    /** Binned history window; an empty window is a cold node. */
    const std::vector<ml::Matrix> *window = nullptr;

    /** Deployments running on the node (load tie-breaks). */
    std::size_t running = 0;
};

/** One placement question. */
struct DecisionRequest
{
    const std::string &app; ///< signature-store key
    WorkloadClass cls;
    std::span<const NodeState> nodes; ///< candidates, never empty
};

/** The answer to one DecisionRequest. */
struct Decision
{
    std::size_t node = 0; ///< index into the request's nodes
    MemoryMode mode = MemoryMode::Local;
    DecisionPath path = DecisionPath::Model;

    /** The rule's operands on the chosen node; NaN where the path never
     *  computed one (BE has no p̂99 or QoS, LC no t̂). */
    double tLocal = std::numeric_limits<double>::quiet_NaN();
    double tRemote = std::numeric_limits<double>::quiet_NaN();
    double p99Remote = std::numeric_limits<double>::quiet_NaN();
    double qos = std::numeric_limits<double>::quiet_NaN();
};

/** The paper's decision rules over a borrowed, trained Predictor. */
class DecisionCore
{
  public:
    /** Both the predictor and the signature store are borrowed. */
    DecisionCore(const models::PredictorBase &predictor,
                 const scenario::SignatureStore &signatures,
                 AdriasConfig config);

    /** Guarded variant: each batch passes the guard's breaker and
     *  deadline once. */
    DecisionCore(models::GuardedPredictor &guard,
                 const scenario::SignatureStore &signatures,
                 AdriasConfig config);

    /**
     * Decide a batch, one decision per request in request order.  Any
     * prediction failure degrades every model-path request of the
     * batch, so none is decided from mixed healthy and sick inference.
     */
    std::vector<Decision> decide(std::span<const DecisionRequest> requests,
                                 SimTime now);

    /** QoS threshold applied to one LC application. */
    double qosFor(const std::string &app) const;

    const AdriasConfig &config() const { return policy; }

    /** @return the attached guard, or nullptr. */
    models::GuardedPredictor *guard() const { return guardGate; }

    /** Relative prediction margin below which two candidates are
     *  iso-QoS and the tie goes to the less loaded node. */
    static constexpr double kIsoMargin = 0.05;

    /** The BE rule: local iff t̂_local < β · t̂_remote. */
    static MemoryMode
    decideBestEffort(double t_local, double t_remote, double beta)
    {
        return t_local < beta * t_remote ? MemoryMode::Local
                                         : MemoryMode::Remote;
    }

    /** The LC rule: remote iff p̂99_remote ≤ QoS. */
    static MemoryMode
    decideLatencyCritical(double p99_remote, double qos)
    {
        return p99_remote <= qos ? MemoryMode::Remote
                                 : MemoryMode::Local;
    }

  private:
    const models::PredictorBase *predictor;
    models::GuardedPredictor *guardGate = nullptr;
    const scenario::SignatureStore *signatures;
    AdriasConfig policy;

    /** The β / QoS rules across a model-path request's warm nodes;
     *  `predicted` holds its rows in the order decide() asked. */
    void choose(const DecisionRequest &request, const double *predicted,
                Decision &decision) const;
};

/** The bootstrap capture rule: an unknown application's first
 *  finished run stores its execution window as its signature. */
void captureSignature(scenario::SignatureStore &signatures,
                      const scenario::DeploymentRecord &record);

} // namespace adrias::core

#endif // ADRIAS_CORE_DECISION_CORE_HH
