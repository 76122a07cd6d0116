#include "core/decision_core.hh"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "common/logging.hh"

namespace adrias::core
{

namespace
{

/** Marks a prediction the rule never asked for. */
constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();

bool
isCold(const NodeState &node)
{
    return node.window->empty();
}

/** Does the rule read a request's Local rows?  BE compares local with
 *  remote per node; LC reads them only to pick the safest local node,
 *  which takes two warm nodes to compare. */
bool
readsLocal(const DecisionRequest &request)
{
    return request.cls == WorkloadClass::BestEffort ||
           std::ranges::count_if(request.nodes, std::not_fn(isCold)) >= 2;
}

} // namespace

std::string
toString(DecisionPath path)
{
    switch (path) {
      case DecisionPath::Model:
        return "model";
      case DecisionPath::Bootstrap:
        return "bootstrap";
      case DecisionPath::Cold:
        return "cold";
      case DecisionPath::Fallback:
        return "fallback";
    }
    panic("unknown DecisionPath");
}

DecisionCore::DecisionCore(const models::PredictorBase &predictor_,
                           const scenario::SignatureStore &signatures_,
                           AdriasConfig config_)
    : predictor(&predictor_), signatures(&signatures_),
      policy(std::move(config_))
{
    if (policy.beta <= 0.0 || policy.beta > 1.5)
        fatal("DecisionCore: beta out of sensible range");
    if (!predictor->trained())
        fatal("DecisionCore requires a trained Predictor");
}

DecisionCore::DecisionCore(models::GuardedPredictor &guard,
                           const scenario::SignatureStore &signatures_,
                           AdriasConfig config_)
    : DecisionCore(static_cast<const models::PredictorBase &>(guard),
                   signatures_, std::move(config_))
{
    guardGate = &guard;
}

double
DecisionCore::qosFor(const std::string &app) const
{
    const auto it = policy.qosP99Ms.find(app);
    return it == policy.qosP99Ms.end() ? policy.defaultQosP99Ms
                                       : it->second;
}

std::vector<Decision>
DecisionCore::decide(std::span<const DecisionRequest> requests, SimTime now)
{
    if (guardGate != nullptr)
        guardGate->beginDecision(now);

    // Rule decisions first; the rest become rows of their class's one
    // batch: request order, node order, and per warm node Local (when
    // the rule reads it) before Remote.
    std::vector<Decision> decisions(requests.size());
    std::vector<models::PredictorBase::PerfQuery> be_rows, lc_rows;
    std::vector<std::size_t> first_row(requests.size(), 0);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const DecisionRequest &request = requests[i];
        Decision &decision = decisions[i];
        if (request.nodes.empty())
            fatal("DecisionCore: a request has no candidate node");
        // Rule and fallback decisions take the least-loaded node.
        decision.node = static_cast<std::size_t>(
            std::ranges::min_element(request.nodes, {}, &NodeState::running) -
            request.nodes.begin());
        if (!signatures->has(request.app)) {
            decision.mode = MemoryMode::Remote;
            decision.path = DecisionPath::Bootstrap;
            continue;
        }
        if (std::ranges::all_of(request.nodes, isCold)) {
            decision.mode = MemoryMode::Local;
            decision.path = DecisionPath::Cold;
            continue;
        }
        if (request.cls != WorkloadClass::BestEffort &&
            request.cls != WorkloadClass::LatencyCritical)
            panic("DecisionCore asked to place a trasher");

        auto &rows =
            request.cls == WorkloadClass::BestEffort ? be_rows : lc_rows;
        first_row[i] = rows.size();
        const auto &signature = signatures->get(request.app);
        const bool local_rows = readsLocal(request);
        for (const NodeState &node : request.nodes) {
            if (isCold(node))
                continue;
            if (local_rows)
                rows.push_back({node.window, &signature, MemoryMode::Local});
            rows.push_back({node.window, &signature, MemoryMode::Remote});
        }
    }

    // One fused inference call per class.  A sick prediction path
    // (breaker open, deadline blown, crash window, invalid inputs)
    // degrades the batch to the heuristic instead of taking the
    // placement loop down.
    bool degraded = false;
    std::vector<double> be_pred, lc_pred;
    try {
        if (!be_rows.empty())
            be_pred = predictor->predictPerformanceBatch(
                WorkloadClass::BestEffort, be_rows);
        if (!lc_rows.empty())
            lc_pred = predictor->predictPerformanceBatch(
                WorkloadClass::LatencyCritical, lc_rows);
    } catch (const models::PredictionUnavailable &err) {
        logWarn(std::string("DecisionCore degraded: ") + err.what());
        degraded = true;
    }

    for (std::size_t i = 0; i < requests.size(); ++i) {
        Decision &decision = decisions[i];
        if (decision.path != DecisionPath::Model)
            continue;
        const bool be = requests[i].cls == WorkloadClass::BestEffort;
        if (degraded) {
            decision.mode = be ? policy.degradedBeMode : policy.degradedLcMode;
            decision.path = DecisionPath::Fallback;
        } else {
            const std::vector<double> &predicted = be ? be_pred : lc_pred;
            choose(requests[i], predicted.data() + first_row[i], decision);
        }
    }
    return decisions;
}

void
DecisionCore::choose(const DecisionRequest &request, const double *predicted,
                     Decision &decision) const
{
    /** One (node, mode) outcome, with its node's rule operands. */
    struct Candidate
    {
        std::size_t node;
        MemoryMode mode;
        double predicted;
        double tLocal;
        double tRemote;
    };
    // Is `c` a clear win over `best`, or an iso-QoS tie on a less
    // loaded node (cluster-level efficiency, §VII)?
    auto beats = [&request](const Candidate &c, const Candidate &best) {
        return c.predicted < best.predicted * (1.0 - kIsoMargin) ||
               (c.predicted <= best.predicted * (1.0 + kIsoMargin) &&
                request.nodes[c.node].running <
                    request.nodes[best.node].running);
    };

    // BE: per node the β rule picks the mode, across nodes the best
    // predicted time wins.  LC: the QoS-meeting remote with the most
    // headroom (least loaded on iso-QoS), otherwise the safest local.
    const bool be = request.cls == WorkloadClass::BestEffort;
    const bool local_rows = readsLocal(request);
    const double qos = be ? 0.0 : qosFor(request.app);
    std::optional<Candidate> best, best_local;
    for (std::size_t n = 0; n < request.nodes.size(); ++n) {
        if (isCold(request.nodes[n]))
            continue;
        const double t_local = local_rows ? *predicted++ : kUnset;
        const double t_remote = *predicted++;
        const MemoryMode mode =
            be ? decideBestEffort(t_local, t_remote, policy.beta)
               : decideLatencyCritical(t_remote, qos);
        const Candidate local{n, MemoryMode::Local, t_local, t_local,
                              t_remote};
        const Candidate remote{n, MemoryMode::Remote, t_remote, t_local,
                               t_remote};
        const Candidate &offer = mode == MemoryMode::Local ? local : remote;
        if ((be || mode == MemoryMode::Remote) &&
            (!best || beats(offer, *best)))
            best = offer;
        if (!be && (!best_local || t_local < best_local->predicted))
            best_local = local;
    }

    const Candidate &chosen = best ? *best : *best_local;
    decision.node = chosen.node;
    decision.mode = chosen.mode;
    if (be) {
        decision.tLocal = chosen.tLocal;
        decision.tRemote = chosen.tRemote;
    } else {
        decision.p99Remote = chosen.tRemote;
        decision.qos = qos;
    }
}

void
captureSignature(scenario::SignatureStore &signatures,
                 const scenario::DeploymentRecord &record)
{
    if (record.cls != WorkloadClass::Interference &&
        !signatures.has(record.name) && !record.executionWindow.empty())
        signatures.put(record.name, record.executionWindow);
}

} // namespace adrias::core
