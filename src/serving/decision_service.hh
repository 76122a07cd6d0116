/**
 * @file
 * The DecisionService: the long-running serving half of the Adrias
 * orchestrator (DESIGN.md §15).  Sharded Watcher feeds submit
 * placement requests through bounded lock-free SPSC queues; the
 * service drains them in deterministic shard order, groups them with a
 * size-or-deadline BatchAssembler, and answers whole batches with one
 * fused inference call per workload class — every decision in a batch
 * reads one consistent epoch snapshot of system state.
 *
 * Threading model: each shard has exactly ONE producer (its feed
 * thread) calling submit(); ONE consumer thread (or the caller, in
 * tests and the simulator) drives beginEpoch()/pump()/drain().  The
 * service itself spawns no threads — the pump is caller-driven, so
 * scenario time stays logical and decisions stay reproducible.
 *
 * Determinism rule: for a fixed (arrival trace, shard count, config),
 * batch composition and decisions are identical across runs and
 * thread counts.  Everything order-sensitive — queue drain order,
 * batch membership, rule evaluation — is a pure function of the trace;
 * the thread pool only accelerates the already-deterministic fused
 * forward passes.
 */

#ifndef ADRIAS_SERVING_DECISION_SERVICE_HH
#define ADRIAS_SERVING_DECISION_SERVICE_HH

#include <atomic>
#include <deque>
#include <memory>
#include <vector>

#include "common/io/checkpoint_annotations.hh"
#include "common/io/checkpointable.hh"
#include "common/spsc_queue.hh"
#include "core/orchestrator.hh"
#include "models/batching.hh"
#include "models/guard.hh"
#include "serving/request.hh"
#include "stats/percentile.hh"
#include "telemetry/sharded.hh"

namespace adrias::serving
{

/** Serving knobs. */
struct DecisionServiceConfig
{
    /** Ingest shards (one SPSC queue each, > 0). */
    std::size_t shards = 4;

    /** Per-shard queue capacity; a full queue back-pressures. */
    std::size_t queueCapacity = 1024;

    /**
     * Requests per batch (b32 by default).  Each class's model rows in
     * a batch go to the predictor as one fused call at their natural
     * width.
     */
    std::size_t batchSize = 32;
};

/** Serving tallies (see stats()). */
struct DecisionServiceStats
{
    std::uint64_t submitted = 0;           ///< accepted into a queue
    std::uint64_t rejectedBackpressure = 0; ///< refused: queue full
    std::uint64_t decisions = 0;
    std::uint64_t batches = 0;
    std::uint64_t fullBatchFlushes = 0;
    std::uint64_t deadlineFlushes = 0;
    /** Always 0: batches are never padded.  Kept because the
     *  checkpoint payload and the benchmark's reports still carry it. */
    std::uint64_t paddedRows = 0;
    std::uint64_t modelDecisions = 0;
    std::uint64_t bootstrapDecisions = 0;
    std::uint64_t coldDecisions = 0;
    std::uint64_t fallbackDecisions = 0;
    std::uint64_t localDecisions = 0;
    std::uint64_t remoteDecisions = 0;
    std::uint64_t missedDeadlines = 0;
    std::uint64_t epochs = 0;
};

/** Batched, epoch-snapshotted placement serving. */
class DecisionService : public io::Checkpointable
{
  public:
    /**
     * @param predictor trained prediction stack (borrowed).
     * @param signatures signature registry (borrowed, read-only here;
     *        bootstrap capture happens at completion, outside the
     *        serving path).
     * @param policy the paper's decision-rule knobs (β, QoS).
     * @param config serving knobs.
     */
    DecisionService(const models::PredictorBase &predictor,
                    const scenario::SignatureStore &signatures,
                    core::AdriasConfig policy = {},
                    DecisionServiceConfig config = {});

    /**
     * Guarded variant: batches flow through the guard's breaker and
     * deadline, and a sick prediction path degrades the whole batch to
     * the heuristic fallback instead of crashing the serving loop.
     */
    DecisionService(models::GuardedPredictor &guard,
                    const scenario::SignatureStore &signatures,
                    core::AdriasConfig policy = {},
                    DecisionServiceConfig config = {});

    // -- producer side (one thread per shard) -------------------------

    /**
     * Enqueue one request on its shard's SPSC queue.  Lock-free; safe
     * against a concurrently pumping consumer.
     *
     * @return false when the shard queue is full (back-pressure: the
     *         caller owns the retry/drop decision).
     */
    bool submit(const PlacementRequest &request);

    // -- consumer side (single thread) --------------------------------

    /**
     * Open a new serving epoch: capture every shard's binned window as
     * the consistent view all subsequent decisions read.
     */
    void beginEpoch(const telemetry::ShardedWatcherSet &feeds,
                    SimTime now);

    /** Epoch from a pre-built snapshot (tests, replay). */
    void beginEpoch(EpochSnapshot snapshot);

    /**
     * One serving tick: drain all shard queues (shard order, FIFO
     * within a shard), then dispatch every batch that is due — full,
     * or flushed because waiting one more tick would cross the
     * earliest pending deadline.
     *
     * @return decisions dispatched this tick, arrival order.
     */
    std::vector<PlacementDecision> pump(SimTime now);

    /**
     * Drain-on-shutdown: pump, then force every still-pending request
     * through regardless of batch fill (in-flight requests are decided,
     * never dropped).
     */
    std::vector<PlacementDecision> drain(SimTime now);

    /** Requests queued or batched but not yet decided. */
    std::size_t inflightCount() const;

    /** Tallies; includes the producer-side submit/reject counters. */
    DecisionServiceStats stats() const;

    /** p99 of decision latency in ticks (NaN before any decision). */
    double p99LatencyTicks() const;

    /** Decision-latency samples, chronological (ticks). */
    const stats::PercentileTracker &latency() const
    {
        return latencyTracker;
    }

    const DecisionServiceConfig &config() const { return knobs; }
    const core::AdriasConfig &policyConfig() const { return policy; }

    /** Deterministic request routing (id % shards). */
    std::size_t
    shardFor(DeploymentId id) const
    {
        return static_cast<std::size_t>(id) % knobs.shards;
    }

    // -- checkpoint/restore (src/recovery integration) ----------------
    //
    // Quiescent-only: producers and the consumer must be stopped (the
    // same rule every Checkpointable in the scenario stack follows —
    // snapshots are taken between ticks, not mid-flight).

    std::string checkpointTag() const override;
    void saveState(io::BinaryWriter &out) const override;
    [[nodiscard]] Result<void> restoreState(io::BinaryReader &in) override;

  private:
    const models::PredictorBase *predictor ADRIAS_NOT_CHECKPOINTED(
        "borrowed model wiring, re-attached at construction");
    models::GuardedPredictor *guardGate ADRIAS_NOT_CHECKPOINTED(
        "the guard checkpoints separately under its own tag") = nullptr;
    const scenario::SignatureStore *signatures ADRIAS_NOT_CHECKPOINTED(
        "borrowed registry; checkpointed by the owning orchestrator");
    core::AdriasConfig policy ADRIAS_NOT_CHECKPOINTED(
        "construction-time configuration, re-supplied on restore");
    DecisionServiceConfig knobs ADRIAS_NOT_CHECKPOINTED(
        "construction-time configuration, re-supplied on restore");

    /** One bounded SPSC ingest queue per shard (contents serialized;
     *  the queue objects themselves are construction-time wiring). */
    std::vector<std::unique_ptr<SpscQueue<PlacementRequest>>> queues;

    /** Accepted-but-undecided requests, arrival order. */
    std::deque<PlacementRequest> inflight;

    /** Batch grouping over inflight; items are arrival sequence
     *  numbers (sanity-checked against the deque front on take). */
    models::BatchAssembler assembler ADRIAS_NOT_CHECKPOINTED(
        "derived state: rebuilt from the inflight deque on restore");

    /** Next arrival sequence number handed to the assembler. */
    std::uint64_t nextSeq = 0;

    /** Oldest inflight request's sequence number. */
    std::uint64_t headSeq = 0;

    std::uint64_t batchCounter = 0;
    EpochSnapshot snapshot;
    DecisionServiceStats tallies;
    stats::PercentileTracker latencyTracker;

    /** Producer-side counters (atomic: one writer per shard races
     *  only against the stats() reader, never another writer of the
     *  same request). */
    std::atomic<std::uint64_t> submitCount{0};
    std::atomic<std::uint64_t> rejectCount{0};

    /** Move every queued request into the inflight/assembler stage. */
    void drainQueues();

    /** Dispatch one due batch; appends its decisions to `out`. */
    void decideBatch(SimTime now, std::vector<PlacementDecision> &out);

    /** QoS threshold for one LC app (policy map lookup). */
    double qosFor(const std::string &app) const;

    /** Degraded-mode placement when predictions are unavailable. */
    MemoryMode fallbackMode(WorkloadClass cls) const;

    void recordDecision(const PlacementRequest &request, MemoryMode mode,
                        DecisionPath path, SimTime now,
                        std::vector<PlacementDecision> &out);
};

} // namespace adrias::serving

#endif // ADRIAS_SERVING_DECISION_SERVICE_HH
