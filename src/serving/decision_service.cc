#include "serving/decision_service.hh"

#include <string>
#include <utility>

#include "common/logging.hh"
#include "scenario/runner.hh"

namespace adrias::serving
{

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

DecisionService::DecisionService(const models::PredictorBase &predictor_,
                                 const scenario::SignatureStore &signatures_,
                                 core::AdriasConfig policy_,
                                 DecisionServiceConfig config_)
    : predictor(&predictor_), signatures(&signatures_), policy(policy_),
      knobs(config_),
      assembler(models::BatchAssemblerConfig{config_.batchSize})
{
    if (knobs.shards == 0)
        fatal("DecisionService: shard count must be positive");
    if (knobs.queueCapacity == 0)
        fatal("DecisionService: queue capacity must be positive");
    if (knobs.batchSize == 0)
        fatal("DecisionService: batch size must be positive");
    if (!predictor->trained())
        fatal("DecisionService requires a trained Predictor");
    if (policy.beta <= 0.0 || policy.beta > 1.5)
        fatal("DecisionService: beta out of sensible range");
    queues.reserve(knobs.shards);
    for (std::size_t s = 0; s < knobs.shards; ++s)
        queues.push_back(std::make_unique<SpscQueue<PlacementRequest>>(
            knobs.queueCapacity));
    snapshot.shardWindows.resize(knobs.shards);
}

DecisionService::DecisionService(models::GuardedPredictor &guard,
                                 const scenario::SignatureStore &signatures_,
                                 core::AdriasConfig policy_,
                                 DecisionServiceConfig config_)
    : DecisionService(static_cast<const models::PredictorBase &>(guard),
                      signatures_, policy_, config_)
{
    guardGate = &guard;
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
DecisionService::beginEpoch(const telemetry::ShardedWatcherSet &feeds,
                            SimTime now)
{
    if (feeds.shardCount() != knobs.shards)
        fatal("DecisionService::beginEpoch: shard count mismatch");
    EpochSnapshot next;
    next.takenAt = now;
    next.shardWindows =
        feeds.binnedWindows(scenario::ScenarioRunner::kWindowSec,
                            scenario::ScenarioRunner::kWindowBins);
    beginEpoch(std::move(next));
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

double
DecisionService::p99LatencyTicks() const
{
    return latencyTracker.quantile(0.99);
}

double
DecisionService::qosFor(const std::string &app) const
{
    const auto it = policy.qosP99Ms.find(app);
    return it == policy.qosP99Ms.end() ? policy.defaultQosP99Ms
                                       : it->second;
}

MemoryMode
DecisionService::fallbackMode(WorkloadClass cls) const
{
    return cls == WorkloadClass::LatencyCritical ? policy.degradedLcMode
                                                 : policy.degradedBeMode;
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
    latencyTracker.add(static_cast<double>(decision.latencyTicks));
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

    // Partition the batch: requests the paper's rules can decide
    // without a model (bootstrap, cold shard) versus model rows.  BE
    // requests contribute two rows (local and remote hypotheticals),
    // LC requests one (remote), all in arrival order.
    enum class Kind : std::uint8_t { Bootstrap, Cold, Model };
    std::vector<Kind> kinds(requests.size(), Kind::Model);
    std::vector<models::PredictorBase::PerfQuery> be_rows, lc_rows;
    std::vector<std::size_t> be_owners, lc_owners;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const PlacementRequest &request = requests[i];
        if (request.shard >= knobs.shards)
            fatal("DecisionService: request shard out of range");
        if (!signatures->has(request.app)) {
            kinds[i] = Kind::Bootstrap;
            continue;
        }
        if (snapshot.shardWindows[request.shard].empty()) {
            kinds[i] = Kind::Cold;
            continue;
        }
        const std::vector<ml::Matrix> &window =
            snapshot.shardWindows[request.shard];
        const std::vector<ml::Matrix> &signature =
            signatures->get(request.app);
        if (request.cls == WorkloadClass::BestEffort) {
            be_rows.push_back({&window, &signature, MemoryMode::Local});
            be_rows.push_back({&window, &signature, MemoryMode::Remote});
            be_owners.push_back(i);
        } else if (request.cls == WorkloadClass::LatencyCritical) {
            lc_rows.push_back({&window, &signature, MemoryMode::Remote});
            lc_owners.push_back(i);
        } else {
            panic("DecisionService asked to place a trasher");
        }
    }

    // One fused inference call per class.  One guard admission per
    // call; any failure degrades the WHOLE batch to the heuristic —
    // the partially predicted values are discarded so batch members
    // are never decided from mixed healthy/sick inference.
    if (guardGate != nullptr)
        guardGate->beginDecision(now);
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
        logWarn(std::string("DecisionService degraded: ") + err.what());
        degraded = true;
    }

    std::vector<MemoryMode> modes(requests.size(), MemoryMode::Local);
    std::vector<DecisionPath> paths(requests.size(), DecisionPath::Model);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        switch (kinds[i]) {
          case Kind::Bootstrap:
            modes[i] = MemoryMode::Remote;
            paths[i] = DecisionPath::Bootstrap;
            break;
          case Kind::Cold:
            modes[i] = MemoryMode::Local;
            paths[i] = DecisionPath::Cold;
            break;
          case Kind::Model:
            if (degraded) {
                modes[i] = fallbackMode(requests[i].cls);
                paths[i] = DecisionPath::Fallback;
            }
            break;
        }
    }
    if (!degraded) {
        for (std::size_t j = 0; j < be_owners.size(); ++j)
            modes[be_owners[j]] = core::AdriasOrchestrator::decideBestEffort(
                be_pred[2 * j], be_pred[2 * j + 1], policy.beta);
        for (std::size_t j = 0; j < lc_owners.size(); ++j)
            modes[lc_owners[j]] =
                core::AdriasOrchestrator::decideLatencyCritical(
                    lc_pred[j], qosFor(requests[lc_owners[j]].app));
    }

    for (std::size_t i = 0; i < requests.size(); ++i)
        recordDecision(requests[i], modes[i], paths[i], now, out);
}

std::string
DecisionService::checkpointTag() const
{
    return "decision-service";
}

void
DecisionService::saveState(io::BinaryWriter &out) const
{
    // Quiescent-only (see header): producers stopped, so the queue
    // snapshots are exact and no request can race the payload.
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

    out.writeF64Vector(latencyTracker.values());

    const auto writeRequest = [&out](const PlacementRequest &request) {
        out.writeU64(request.id);
        out.writeString(request.app);
        out.writeU8(static_cast<std::uint8_t>(request.cls));
        out.writeU64(request.shard);
        out.writeI64(request.submitted);
        out.writeI64(request.deadline);
    };

    // Epoch snapshot: every shard's window, matrices as raw rows.
    out.writeU64(snapshot.epoch);
    out.writeI64(snapshot.takenAt);
    out.writeU64(snapshot.shardWindows.size());
    for (const auto &window : snapshot.shardWindows) {
        out.writeU64(window.size());
        for (const ml::Matrix &step : window) {
            out.writeU64(step.cols());
            for (std::size_t c = 0; c < step.cols(); ++c)
                out.writeF64(step.at(0, c));
        }
    }

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

    latencyTracker.clear();
    for (double sample : in.readF64Vector())
        latencyTracker.add(sample);

    const auto readRequest = [&in]() {
        PlacementRequest request;
        request.id = in.readU64();
        request.app = in.readString();
        request.cls = static_cast<WorkloadClass>(in.readU8());
        request.shard = static_cast<std::size_t>(in.readU64());
        request.submitted = in.readI64();
        request.deadline = in.readI64();
        return request;
    };

    snapshot.epoch = in.readU64();
    snapshot.takenAt = in.readI64();
    const std::uint64_t shard_count = in.readU64();
    if (!in.ok() || shard_count != knobs.shards)
        return makeError(ErrorCode::BadNumber,
                         "DecisionService: snapshot shard mismatch");
    snapshot.shardWindows.assign(knobs.shards, {});
    for (auto &window : snapshot.shardWindows) {
        const std::uint64_t steps = in.readU64();
        if (!in.ok())
            return makeError(ErrorCode::Truncated,
                             "DecisionService: truncated snapshot");
        window.resize(steps);
        for (ml::Matrix &step : window) {
            const std::uint64_t cols = in.readU64();
            if (!in.ok())
                return makeError(ErrorCode::Truncated,
                                 "DecisionService: truncated snapshot");
            step = ml::Matrix(1, static_cast<std::size_t>(cols));
            for (std::size_t c = 0; c < cols; ++c)
                step.at(0, c) = in.readF64();
        }
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
        PlacementRequest request = readRequest();
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
            if (!queue->tryPush(readRequest()))
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
