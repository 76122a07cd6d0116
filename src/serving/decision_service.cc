#include "serving/decision_service.hh"

#include <string>
#include <string_view>
#include <utility>

#include "common/logging.hh"
#include "ml/serialize.hh"

namespace adrias::serving
{

DecisionService::DecisionService(const models::PredictorBase &predictor,
                                 const scenario::SignatureStore &signatures,
                                 core::AdriasConfig policy,
                                 DecisionServiceConfig config_)
    : DecisionService(core::DecisionCore(predictor, signatures,
                                         std::move(policy)),
                      config_)
{
}

DecisionService::DecisionService(models::GuardedPredictor &guard,
                                 const scenario::SignatureStore &signatures,
                                 core::AdriasConfig policy,
                                 DecisionServiceConfig config_)
    : DecisionService(core::DecisionCore(guard, signatures,
                                         std::move(policy)),
                      config_)
{
}

DecisionService::DecisionService(core::DecisionCore rules_,
                                 DecisionServiceConfig config_)
    : rules(std::move(rules_)), knobs(config_),
      assembler(models::BatchAssemblerConfig{config_.batchSize})
{
    if (knobs.shards == 0)
        fatal("DecisionService: shard count must be positive");
    if (knobs.queueCapacity == 0)
        fatal("DecisionService: queue capacity must be positive");
    if (knobs.batchSize == 0)
        fatal("DecisionService: batch size must be positive");
    queues.reserve(knobs.shards);
    for (std::size_t s = 0; s < knobs.shards; ++s)
        queues.push_back(std::make_unique<SpscQueue<PlacementRequest>>(
            knobs.queueCapacity));
    snapshot.shardWindows.resize(knobs.shards);
}

bool
DecisionService::submit(const PlacementRequest &request)
{
    if (request.shard >= queues.size())
        fatal("DecisionService::submit: shard out of range");
    if (!queues[request.shard]->tryPush(request)) {
        rejectCount.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    submitCount.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
DecisionService::beginEpoch(EpochSnapshot next)
{
    if (next.shardWindows.size() != knobs.shards)
        fatal("DecisionService::beginEpoch: snapshot shard mismatch");
    ++tallies.epochs;
    next.epoch = tallies.epochs;
    snapshot = std::move(next);
}

void
DecisionService::drainQueues()
{
    // Deterministic ingest order: ascending shard, FIFO within the
    // shard.  Batch composition therefore depends only on what each
    // producer had queued before this pump, never on thread timing
    // between the queues.
    for (auto &queue : queues) {
        PlacementRequest request;
        while (queue->tryPop(request)) {
            assembler.push(static_cast<std::size_t>(nextSeq),
                           request.deadline);
            ++nextSeq;
            inflight.push_back(std::move(request));
        }
    }
}

std::vector<PlacementDecision>
DecisionService::pump(SimTime now)
{
    drainQueues();
    std::vector<PlacementDecision> decisions;
    while (assembler.pending() > 0 && assembler.flushDue(now))
        decideBatch(now, decisions);
    return decisions;
}

std::vector<PlacementDecision>
DecisionService::drain(SimTime now)
{
    std::vector<PlacementDecision> decisions = pump(now);
    // Shutdown rule: in-flight requests are decided, never dropped.
    while (assembler.pending() > 0)
        decideBatch(now, decisions);
    return decisions;
}

std::size_t
DecisionService::inflightCount() const
{
    std::size_t queued = 0;
    for (const auto &queue : queues)
        queued += queue->size();
    return queued + inflight.size();
}

DecisionServiceStats
DecisionService::stats() const
{
    DecisionServiceStats merged = tallies;
    merged.submitted = submitCount.load(std::memory_order_relaxed);
    merged.rejectedBackpressure =
        rejectCount.load(std::memory_order_relaxed);
    return merged;
}

void
DecisionService::recordDecision(const PlacementRequest &request,
                                MemoryMode mode, DecisionPath path,
                                SimTime now,
                                std::vector<PlacementDecision> &out)
{
    PlacementDecision decision;
    decision.id = request.id;
    decision.mode = mode;
    decision.path = path;
    decision.decided = now;
    decision.latencyTicks = now - request.submitted;
    decision.missedDeadline = now >= request.deadline;
    decision.epoch = snapshot.epoch;
    decision.batchSeq = batchCounter;

    ++tallies.decisions;
    if (mode == MemoryMode::Remote)
        ++tallies.remoteDecisions;
    else
        ++tallies.localDecisions;
    switch (path) {
      case DecisionPath::Model:
        ++tallies.modelDecisions;
        break;
      case DecisionPath::Bootstrap:
        ++tallies.bootstrapDecisions;
        break;
      case DecisionPath::Cold:
        ++tallies.coldDecisions;
        break;
      case DecisionPath::Fallback:
        ++tallies.fallbackDecisions;
        break;
    }
    if (decision.missedDeadline)
        ++tallies.missedDeadlines;
    if (decision.latencyTicks < 0)
        fatal("DecisionService: request decided before its submission");
    out.push_back(std::move(decision));
}

void
DecisionService::decideBatch(SimTime now,
                             std::vector<PlacementDecision> &out)
{
    const bool flushed_full = assembler.pending() >= knobs.batchSize;
    const std::vector<std::size_t> seqs = assembler.take();

    std::vector<PlacementRequest> requests;
    requests.reserve(seqs.size());
    for (std::size_t seq : seqs) {
        if (inflight.empty() || seq != headSeq)
            panic("DecisionService: assembler/inflight desync");
        requests.push_back(std::move(inflight.front()));
        inflight.pop_front();
        ++headSeq;
    }

    ++tallies.batches;
    ++batchCounter;
    if (flushed_full)
        ++tallies.fullBatchFlushes;
    else
        ++tallies.deadlineFlushes;

    // Each request is decided against a one-node set: its shard's
    // epoch window (empty while the shard is cold).
    std::vector<core::NodeState> shard_nodes;
    shard_nodes.reserve(snapshot.shardWindows.size());
    for (const std::vector<ml::Matrix> &window : snapshot.shardWindows)
        shard_nodes.push_back({&window, 0});
    std::vector<core::DecisionRequest> asks;
    asks.reserve(requests.size());
    for (const PlacementRequest &request : requests)
        asks.push_back({request.app, request.cls,
                        {&shard_nodes[request.shard], 1}});

    const std::vector<core::Decision> decisions = rules.decide(asks, now);
    for (std::size_t i = 0; i < requests.size(); ++i)
        recordDecision(requests[i], decisions[i].mode, decisions[i].path,
                       now, out);
}

std::string
DecisionService::checkpointTag() const
{
    return "decision-service";
}

namespace
{

/** Leads every payload.  v1 kept every latency sample as a double,
 *  v2 wrote each window step as bare columns and v3 carried per-tick
 *  latency counts; such a payload fails this check instead of being
 *  misread. */
constexpr std::string_view kPayloadFormat = "decision-service-v4";

} // namespace

void
DecisionService::saveState(io::BinaryWriter &out) const
{
    // Quiescent-only (see header): producers stopped, so the queue
    // snapshots are exact and no request can race the payload.
    out.writeString(kPayloadFormat);
    out.writeU64(nextSeq);
    out.writeU64(headSeq);
    out.writeU64(batchCounter);
    out.writeU64(submitCount.load(std::memory_order_relaxed));
    out.writeU64(rejectCount.load(std::memory_order_relaxed));

    out.writeU64(tallies.decisions);
    out.writeU64(tallies.batches);
    out.writeU64(tallies.fullBatchFlushes);
    out.writeU64(tallies.deadlineFlushes);
    out.writeU64(tallies.paddedRows);
    out.writeU64(tallies.modelDecisions);
    out.writeU64(tallies.bootstrapDecisions);
    out.writeU64(tallies.coldDecisions);
    out.writeU64(tallies.fallbackDecisions);
    out.writeU64(tallies.localDecisions);
    out.writeU64(tallies.remoteDecisions);
    out.writeU64(tallies.missedDeadlines);
    out.writeU64(tallies.epochs);

    const auto writeRequest = [&out](const PlacementRequest &request) {
        out.writeU64(request.id);
        out.writeString(request.app);
        out.writeU8(static_cast<std::uint8_t>(request.cls));
        out.writeU64(request.shard);
        out.writeI64(request.submitted);
        out.writeI64(request.deadline);
    };

    // Epoch snapshot: every shard's window as a matrix sequence.
    out.writeU64(snapshot.epoch);
    out.writeI64(snapshot.takenAt);
    out.writeU64(snapshot.shardWindows.size());
    for (const auto &window : snapshot.shardWindows)
        ml::saveMatrixSequence(out, window);

    // In-flight stage: batched-but-undecided requests (the assembler
    // is rebuilt from these on restore), then each queue's content.
    out.writeU64(inflight.size());
    for (const PlacementRequest &request : inflight)
        writeRequest(request);
    out.writeU64(queues.size());
    for (const auto &queue : queues) {
        const std::vector<PlacementRequest> queued =
            queue->snapshotContents();
        out.writeU64(queued.size());
        for (const PlacementRequest &request : queued)
            writeRequest(request);
    }
}

Result<void>
DecisionService::restoreState(io::BinaryReader &in)
{
    if (Result<void> header = in.expectTag(kPayloadFormat); !header)
        return header;
    nextSeq = in.readU64();
    headSeq = in.readU64();
    batchCounter = in.readU64();
    submitCount.store(in.readU64(), std::memory_order_relaxed);
    rejectCount.store(in.readU64(), std::memory_order_relaxed);

    tallies.decisions = in.readU64();
    tallies.batches = in.readU64();
    tallies.fullBatchFlushes = in.readU64();
    tallies.deadlineFlushes = in.readU64();
    tallies.paddedRows = in.readU64();
    tallies.modelDecisions = in.readU64();
    tallies.bootstrapDecisions = in.readU64();
    tallies.coldDecisions = in.readU64();
    tallies.fallbackDecisions = in.readU64();
    tallies.localDecisions = in.readU64();
    tallies.remoteDecisions = in.readU64();
    tallies.missedDeadlines = in.readU64();
    tallies.epochs = in.readU64();

    // A restored request must name one of this service's shards and a
    // class the rules place; anything else marks a corrupt payload.
    const auto readRequest = [this, &in](PlacementRequest &request)
        -> Result<void> {
        request.id = in.readU64();
        request.app = in.readString();
        request.cls = static_cast<WorkloadClass>(in.readU8());
        request.shard = static_cast<std::size_t>(in.readU64());
        request.submitted = in.readI64();
        request.deadline = in.readI64();
        if (!in.ok())
            return makeError(ErrorCode::Truncated,
                             "DecisionService: truncated request");
        if (request.shard >= knobs.shards ||
            (request.cls != WorkloadClass::BestEffort &&
             request.cls != WorkloadClass::LatencyCritical))
            return makeError(ErrorCode::BadNumber,
                             "DecisionService: restored request has a "
                             "shard or class out of range");
        return {};
    };

    snapshot.epoch = in.readU64();
    snapshot.takenAt = in.readI64();
    const std::uint64_t shard_count = in.readU64();
    if (!in.ok() || shard_count != knobs.shards)
        return makeError(ErrorCode::BadNumber,
                         "DecisionService: snapshot shard mismatch");
    snapshot.shardWindows.assign(knobs.shards, {});
    for (auto &window : snapshot.shardWindows) {
        Result<std::vector<ml::Matrix>> steps = ml::loadMatrixSequence(in);
        if (!steps)
            return steps.error();
        // A window step is one Watcher sample: a single row.
        for (const ml::Matrix &step : steps.value())
            if (step.rows() != 1)
                return makeError(ErrorCode::Geometry,
                                 "DecisionService: window step is not "
                                 "one row");
        window = std::move(steps.value());
    }

    // Rebuild the in-flight stage: the assembler is re-fed in arrival
    // order with the restored sequence numbers.
    inflight.clear();
    assembler = models::BatchAssembler(
        models::BatchAssemblerConfig{knobs.batchSize});
    const std::uint64_t inflight_count = in.readU64();
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "DecisionService: truncated in-flight section");
    for (std::uint64_t i = 0; i < inflight_count; ++i) {
        PlacementRequest request;
        if (Result<void> read = readRequest(request); !read.ok())
            return read;
        assembler.push(static_cast<std::size_t>(headSeq + i),
                       request.deadline);
        inflight.push_back(std::move(request));
    }

    const std::uint64_t queue_count = in.readU64();
    if (!in.ok() || queue_count != queues.size())
        return makeError(ErrorCode::BadNumber,
                         "DecisionService: queue count mismatch");
    for (auto &queue : queues) {
        PlacementRequest discard;
        while (queue->tryPop(discard)) {
        }
        const std::uint64_t queued = in.readU64();
        if (!in.ok() || queued > queue->capacity())
            return makeError(ErrorCode::BadNumber,
                             "DecisionService: queue payload overflow");
        for (std::uint64_t i = 0; i < queued; ++i) {
            PlacementRequest request;
            if (Result<void> read = readRequest(request); !read.ok())
                return read;
            if (!queue->tryPush(std::move(request)))
                return makeError(ErrorCode::BadNumber,
                                 "DecisionService: queue refill failed");
        }
    }
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "DecisionService: truncated snapshot section");
    return {};
}

} // namespace adrias::serving
