/**
 * @file
 * Wire types of the decision-serving path (DESIGN.md §15): the
 * placement request a shard's producer submits, the decision the
 * service returns, and the per-epoch system-state snapshot every
 * decision in a batch reads from.
 */

#ifndef ADRIAS_SERVING_REQUEST_HH
#define ADRIAS_SERVING_REQUEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/decision_core.hh"
#include "ml/matrix.hh"

namespace adrias::serving
{

/**
 * One placement question, queued from a shard's producer thread.
 * Deadlines are absolute ticks and EXCLUSIVE: a request decided at
 * tick `deadline` has already missed it (the same hard-budget boundary
 * the GuardedPredictor applies to inference latency).
 */
struct PlacementRequest
{
    DeploymentId id = 0;

    /** Application name (signature-store key). */
    std::string app;

    WorkloadClass cls = WorkloadClass::BestEffort;

    /** Telemetry shard whose feed produced this request. */
    std::size_t shard = 0;

    /** Submission tick. */
    SimTime submitted = 0;

    /** Absolute decision deadline, exclusive. */
    SimTime deadline = 0;
};

/** Which rule produced a decision: the decision core's paths. */
using core::DecisionPath;

/** The service's answer to one PlacementRequest. */
struct PlacementDecision
{
    DeploymentId id = 0;
    MemoryMode mode = MemoryMode::Local;
    DecisionPath path = DecisionPath::Model;

    /** Tick the decision batch was dispatched. */
    SimTime decided = 0;

    /** decided - submitted (whole ticks spent queued + batched). */
    SimTime latencyTicks = 0;

    /** true iff decided >= deadline (deadlines are exclusive). */
    bool missedDeadline = false;

    /** Epoch snapshot the decision read. */
    std::uint64_t epoch = 0;

    /** Running batch number the decision was served in. */
    std::uint64_t batchSeq = 0;
};

/**
 * Consistent system view for one serving epoch: every shard's binned
 * history window, captured together.  An empty per-shard window means
 * that shard is still cold.  All decisions between two beginEpoch()
 * calls read the same snapshot, so batch composition can never leak
 * into what a decision observes.
 */
struct EpochSnapshot
{
    std::uint64_t epoch = 0;
    SimTime takenAt = 0;

    /** One binned window per shard (empty sequence == cold shard). */
    std::vector<std::vector<ml::Matrix>> shardWindows;
};

} // namespace adrias::serving

#endif // ADRIAS_SERVING_REQUEST_HH
