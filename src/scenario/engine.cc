#include "scenario/engine.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "scenario/signature.hh"
#include "testbed/testbed.hh"
#include "testbed/topology.hh"

namespace adrias::scenario
{

using workloads::WorkloadInstance;
using workloads::WorkloadSpec;

namespace
{

void
saveRecord(io::BinaryWriter &out, const DeploymentRecord &record)
{
    out.writeU64(record.id);
    out.writeString(record.name);
    out.writeU8(static_cast<std::uint8_t>(record.cls));
    out.writeU8(static_cast<std::uint8_t>(record.mode));
    out.writeI64(record.arrival);
    out.writeI64(record.completion);
    out.writeF64(record.execTimeSec);
    out.writeF64(record.p99Ms);
    out.writeF64(record.p999Ms);
    out.writeF64(record.meanLatencyMs);
    out.writeF64(record.meanSlowdown);
    out.writeF64(record.remoteTrafficGB);
    out.writeU64(record.migrations);
    saveMatrixSequence(out, record.historyWindow);
    saveMatrixSequence(out, record.executionWindow);
}

[[nodiscard]] Result<DeploymentRecord>
loadRecord(io::BinaryReader &in)
{
    DeploymentRecord record;
    record.id = in.readU64();
    record.name = in.readString();
    const std::uint8_t rawCls = in.readU8();
    const std::uint8_t rawMode = in.readU8();
    record.arrival = in.readI64();
    record.completion = in.readI64();
    record.execTimeSec = in.readF64();
    record.p99Ms = in.readF64();
    record.p999Ms = in.readF64();
    record.meanLatencyMs = in.readF64();
    record.meanSlowdown = in.readF64();
    record.remoteTrafficGB = in.readF64();
    record.migrations = in.readU64();
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "truncated deployment record");
    if (rawCls > static_cast<std::uint8_t>(WorkloadClass::Interference))
        return makeError(ErrorCode::BadNumber,
                         "deployment record has invalid workload class");
    if (rawMode > static_cast<std::uint8_t>(MemoryMode::Remote))
        return makeError(ErrorCode::BadNumber,
                         "deployment record has invalid memory mode");
    record.cls = static_cast<WorkloadClass>(rawCls);
    record.mode = static_cast<MemoryMode>(rawMode);
    Result<std::vector<ml::Matrix>> history = loadMatrixSequence(in);
    if (!history)
        return history.error();
    record.historyWindow = std::move(history.value());
    Result<std::vector<ml::Matrix>> execution = loadMatrixSequence(in);
    if (!execution)
        return execution.error();
    record.executionWindow = std::move(execution.value());
    return record;
}

} // namespace

ScenarioEngine::ScenarioEngine(ScenarioConfig config_)
    : ScenarioEngine(testbed::topologyByName(config_.topology), config_)
{
}

ScenarioEngine::ScenarioEngine(testbed::Topology topology,
                               ScenarioConfig config_)
    : config(std::move(config_)), rng(config.seed),
      bed(std::move(topology), rng.nextU64()), injector(config.faults)
{
    validateScenarioConfig(config);

    bed.setNoise(config.counterNoise);
    nodes.resize(bed.topology().nodeCount());
    for (Node &node : nodes) {
        node.watcher = std::make_unique<telemetry::Watcher>(kWindowSec * 4);
        node.result.trace.reserve(
            static_cast<std::size_t>(config.durationSec));
        node.result.concurrency.reserve(
            static_cast<std::size_t>(config.durationSec));
    }
    nextArrival = rng.uniformInt(config.spawnMinSec, config.spawnMaxSec);
}

std::size_t
ScenarioEngine::runningCount() const
{
    std::size_t count = 0;
    for (const Node &node : nodes)
        count += node.running.size();
    return count;
}

void
ScenarioEngine::queueReplayDecision(const PlacementDecision &decision)
{
    replayQueue.push_back(decision);
}

void
ScenarioEngine::applyLinkFaults()
{
    const testbed::Topology &topo = bed.topology();
    for (std::size_t l = 0; l < topo.linkCount(); ++l) {
        const fault::LinkState state =
            injector.linkStateAt(now_, topo.link(l).name);
        bed.setLinkFault(l, state.bwScale, state.latencyScale);
    }
}

RackView
ScenarioEngine::rackView() const
{
    const testbed::Topology &topo = bed.topology();
    RackView view;
    view.topology = &topo;
    view.servers.resize(topo.serverCount());
    for (std::size_t s = 0; s < topo.serverCount(); ++s) {
        view.servers[s].capacityGb = topo.server(s).capacityGb;
        view.servers[s].availableGb = bed.availableGb(s);
    }
    view.links.resize(topo.linkCount());
    for (std::size_t l = 0; l < topo.linkCount(); ++l) {
        view.links[l].node = topo.link(l).node;
        view.links[l].server = topo.link(l).server;
        view.links[l].bwScale = bed.linkBwFault(l);
        view.links[l].latencyScale = bed.linkLatencyFault(l);
    }
    return view;
}

void
ScenarioEngine::dropArrival()
{
    ++droppedArrivals;
#if ADRIAS_OBS_ENABLED
    if (obs::enabled())
        obs::MetricsRegistry::global()
            .counter("scenario.dropped_arrivals")
            .add();
#endif
}

void
ScenarioEngine::recordDecision(const PlacementDecision &decision)
{
    // The policy always runs — during journal replay too, so its
    // internal RNG/predictor state advances exactly as in the original
    // execution — and the re-derived decision is verified against the
    // write-ahead journal.
    if (!replayQueue.empty()) {
        const PlacementDecision expected = replayQueue.front();
        replayQueue.pop_front();
        if (!(expected == decision))
            panic("ScenarioEngine: journal replay diverged at t=" +
                  std::to_string(now_) + " (journal: " +
                  expected.specName + " id " +
                  std::to_string(expected.id) + ", replay: " +
                  decision.specName + " id " +
                  std::to_string(decision.id) + ")");
    } else if (decisionSink != nullptr) {
        // Write-ahead: the decision becomes durable before the
        // deployment exists anywhere else.
        decisionSink->onDecision(decision);
    }
}

void
ScenarioEngine::admitArrivals(ClusterPolicy &policy)
{
    const testbed::Topology &topo = bed.topology();
    while (now_ >= nextArrival) {
        nextArrival +=
            rng.uniformInt(config.spawnMinSec, config.spawnMaxSec);
        const bool every_node_full =
            std::all_of(nodes.begin(), nodes.end(), [&](const Node &node) {
                return node.running.size() >= config.maxConcurrent;
            });
        if (every_node_full) {
            dropArrival(); // every node full: drop, as the prototype would
            continue;
        }

        const ArrivalDraw arrival = drawArrival(config, rng);
        const WorkloadSpec &spec = *arrival.spec;

        ClusterPlacement placement;
        if (arrival.isIBench) {
            // Trashers model background interference: any node, either
            // mode, placed randomly; remote ones still need a real
            // route.
            if (nodes.size() > 1)
                placement.node = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(nodes.size()) - 1));
            placement.mode = rng.bernoulli(0.5) ? MemoryMode::Remote
                                                : MemoryMode::Local;
            placement = routeOnRack(placement, spec, rackView());
        } else {
            std::vector<NodeView> views(nodes.size());
            for (std::size_t n = 0; n < nodes.size(); ++n) {
                views[n].watcher = nodes[n].watcher.get();
                views[n].running = nodes[n].running.size();
            }
            placement = policy.placeRack(spec, views, rackView(), now_);
            if (placement.node >= nodes.size())
                panic("ClusterPolicy returned an invalid node");
            if (placement.mode == MemoryMode::Remote) {
                if (placement.link >= topo.linkCount())
                    panic("ClusterPolicy returned an invalid link");
                const testbed::LinkDesc &link = topo.link(placement.link);
                if (link.node != placement.node ||
                    link.server != placement.server)
                    panic("ClusterPolicy placement link does not "
                          "connect its node to its server");
            }
        }

        Node &target = nodes[placement.node];
        if (target.running.size() >= config.maxConcurrent) {
            dropArrival(); // chosen node full
            continue;
        }
        if (!arrival.isIBench)
            recordDecision({now_, nextId, spec.name, placement.mode});

        RunningApp app;
        if (placement.mode == MemoryMode::Remote) {
            // Reserve the footprint on the lending server for the
            // deployment's lifetime; a full server demotes the
            // placement to the node's local pool.
            if (bed.allocate(placement.server, spec.memoryFootprintGb)) {
                app.server = placement.server;
                app.link = placement.link;
                app.reservedGb = spec.memoryFootprintGb;
            } else {
                placement.mode = MemoryMode::Local;
                ++remoteFallbacks;
            }
        }
        app.instance = std::make_unique<WorkloadInstance>(
            nextId++, spec, placement.mode, now_, rng.nextU64());
        target.running.push_back(std::move(app));

#if ADRIAS_OBS_ENABLED
        if (obs::enabled()) {
            obs::MetricsRegistry::global()
                .counter("scenario.arrivals")
                .add();
            if (obs::Tracer::global().enabled()) {
                obs::Tracer::global().simInstant(
                    "arrival:" + spec.name, "scenario", now_,
                    {obs::arg("class", toString(spec.cls)),
                     obs::arg("mode", toString(placement.mode))});
            }
        }
#endif
    }
}

void
ScenarioEngine::observeNode(std::size_t n,
                            const testbed::NodeTickStats &stats)
{
    // The Watcher sees what a real deployment would: dropped, stale or
    // corrupted samples; it repairs what it can and the trace records
    // its observed (post-repair) view.
    Node &node = nodes[n];
    ScenarioResult &result = node.result;
    testbed::CounterSample observed = stats.counters;
    const fault::CounterAction action = injector.applyCounterFaults(
        observed, result.trace.empty() ? nullptr : &result.trace.back(),
        now_);
    if (action == fault::CounterAction::Drop)
        node.watcher->recordDropped(now_);
    else
        node.watcher->record(observed, now_);
    result.trace.push_back(node.watcher->latest());
    result.concurrency.push_back(static_cast<int>(node.running.size()));
    result.totalRemoteTrafficGB += stats.remoteTrafficGBps;
    totalRemoteTrafficGB += stats.remoteTrafficGBps;
}

void
ScenarioEngine::harvestCompletions(std::size_t n, ClusterPolicy &policy)
{
    Node &node = nodes[n];
    for (std::size_t i = node.running.size(); i-- > 0;) {
        const RunningApp &done = node.running[i];
        if (!done.instance->finished())
            continue;
        DeploymentRecord record =
            completionRecord(*done.instance, now_, node.result.trace);
        if (done.reservedGb > 0.0)
            bed.release(done.server, done.reservedGb);
        policy.onCompletion(n, record);
#if ADRIAS_OBS_ENABLED
        if (obs::enabled()) {
            obs::MetricsRegistry::global()
                .counter("scenario.completions")
                .add();
            if (obs::Tracer::global().enabled()) {
                obs::Tracer::global().simInstant(
                    "complete:" + record.name, "scenario", now_ + 1,
                    {obs::arg("mode", toString(record.mode)),
                     obs::arg("exec_s", record.execTimeSec),
                     obs::arg("slowdown", record.meanSlowdown)});
            }
        }
#endif
        node.result.records.push_back(std::move(record));
        node.running.erase(node.running.begin() +
                           static_cast<std::ptrdiff_t>(i));
    }
}

void
ScenarioEngine::stepTick(ClusterPolicy &policy, RuntimePolicy *runtime)
{
    if (finished())
        panic("ScenarioEngine::stepTick past the configured duration");

    if (runtime != nullptr && nodes.size() != 1)
        fatal("ScenarioEngine: the L2 runtime hook sees one node, but "
              "topology '" +
              bed.topology().name() + "' has " +
              std::to_string(nodes.size()));

    // Injected link faults derate each link before anything is placed
    // or resolved this tick.
    applyLinkFaults();
    admitArrivals(policy);

    // --- one shared rack second ---------------------------------------
    std::vector<testbed::LoadDescriptor> loads;
    loads.reserve(runningCount());
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        for (const RunningApp &app : nodes[n].running) {
            testbed::LoadDescriptor load = app.instance->load();
            load.node = n;
            load.server = app.server;
            load.link = app.link;
            loads.push_back(load);
        }
    }
    const testbed::RackTickResult &tick = bed.tick(loads);

    std::size_t k = 0;
    for (Node &node : nodes)
        for (RunningApp &app : node.running)
            app.instance->advance(tick.outcomes[k++], now_ + 1);

    for (std::size_t n = 0; n < nodes.size(); ++n)
        observeNode(n, tick.nodes[n]);

#if ADRIAS_OBS_ENABLED
    if (obs::enabled()) {
        static obs::Counter &ticks_c =
            obs::MetricsRegistry::global().counter("scenario.ticks");
        ticks_c.add();
        if (obs::Tracer::global().enabled()) {
            double pressure = 0.0;
            for (const testbed::LinkTickStats &link : tick.links)
                pressure = std::max(pressure, link.pressure);
            obs::Tracer::global().simSpan(
                "tick", "scenario", now_, now_ + 1,
                {obs::arg("concurrency",
                          static_cast<std::int64_t>(loads.size())),
                 obs::arg("pressure", pressure)});
        }
    }
#endif

    // --- L2 runtime management (one-node runs) ------------------------
    if (runtime) {
        std::vector<WorkloadInstance *> live;
        live.reserve(loads.size());
        for (const RunningApp &app : nodes[0].running)
            live.push_back(app.instance.get());
        runtime->onTick(live, testbed::singleChannelView(tick), now_ + 1);
    }

    for (std::size_t n = 0; n < nodes.size(); ++n)
        harvestCompletions(n, policy);
    ++now_;
}

ScenarioResult
ScenarioEngine::finish()
{
    if (nodes.size() != 1)
        fatal("ScenarioEngine::finish on a multi-node topology "
              "(use finishCluster)");
    return std::move(finishCluster().nodes.front());
}

ClusterResult
ScenarioEngine::finishCluster()
{
    if (!finished())
        panic("ScenarioEngine::finish before the scenario completed");
    const testbed::Topology &topo = bed.topology();
    ClusterResult result;
    result.topologyName = topo.name();
    result.totalRemoteTrafficGB = totalRemoteTrafficGB;
    result.droppedArrivals = droppedArrivals;
    result.remoteFallbacks = remoteFallbacks;
    result.linkTotals.reserve(topo.linkCount());
    for (std::size_t l = 0; l < topo.linkCount(); ++l)
        result.linkTotals.push_back(bed.linkTotals(l));
    result.nodes.reserve(nodes.size());
    for (Node &node : nodes) {
        node.result.faultSummary = injector.stats();
        node.result.watcherHealth = node.watcher->health();
        result.nodes.push_back(std::move(node.result));
    }
    return result;
}

void
ScenarioEngine::saveState(io::BinaryWriter &out) const
{
    if (!replayQueue.empty())
        panic("ScenarioEngine::saveState during journal replay");

    out.writeI64(now_);
    out.writeU64(nextId);
    out.writeI64(nextArrival);
    rng.saveState(out);
    bed.saveState(out);
    injector.saveState(out);

    out.writeU64(nodes.size());
    for (const Node &node : nodes) {
        node.watcher->saveState(out);
        const ScenarioResult &result = node.result;
        out.writeU64(result.trace.size());
        for (const testbed::CounterSample &sample : result.trace)
            for (double event : sample)
                out.writeF64(event);
        out.writeI32Vector(result.concurrency);
        out.writeF64(result.totalRemoteTrafficGB);
        out.writeU64(result.records.size());
        for (const DeploymentRecord &record : result.records)
            saveRecord(out, record);

        out.writeU64(node.running.size());
        for (const RunningApp &app : node.running) {
            app.instance->saveState(out);
            out.writeU64(app.server);
            out.writeU64(app.link);
            out.writeF64(app.reservedGb);
        }
    }
    out.writeF64(totalRemoteTrafficGB);
    out.writeU64(droppedArrivals);
    out.writeU64(remoteFallbacks);

    // Topology stamp: a snapshot only restores into an engine built on
    // the same rack.
    out.writeString(bed.topology().name());
}

Result<void>
ScenarioEngine::restoreState(io::BinaryReader &in)
{
    const testbed::Topology &topo = bed.topology();
    now_ = in.readI64();
    nextId = in.readU64();
    nextArrival = in.readI64();
    rng.restoreState(in);
    if (Result<void> restored = bed.restoreState(in); !restored)
        return restored;
    if (Result<void> restored = injector.restoreState(in); !restored)
        return restored;

    const std::uint64_t nodeCount = in.readU64();
    if (in.ok() && nodeCount != nodes.size())
        return makeError(ErrorCode::Geometry,
                         "ScenarioEngine: snapshot node count does not "
                         "match the topology");
    for (std::size_t n = 0; n < nodes.size() && in.ok(); ++n) {
        Node &node = nodes[n];
        if (Result<void> restored = node.watcher->restoreState(in);
            !restored)
            return restored;
        ScenarioResult &result = node.result;
        const std::uint64_t traceLen = in.readU64();
        if (traceLen > static_cast<std::uint64_t>(config.durationSec))
            return makeError(ErrorCode::Geometry,
                             "ScenarioEngine: snapshot trace longer than "
                             "the configured duration");
        result.trace.clear();
        for (std::uint64_t i = 0; i < traceLen && in.ok(); ++i) {
            testbed::CounterSample sample{};
            for (double &event : sample)
                event = in.readF64();
            result.trace.push_back(sample);
        }
        result.concurrency = in.readI32Vector();
        result.concurrency.reserve(
            static_cast<std::size_t>(config.durationSec));
        result.totalRemoteTrafficGB = in.readF64();
        const std::uint64_t recordCount = in.readU64();
        result.records.clear();
        for (std::uint64_t i = 0; i < recordCount && in.ok(); ++i) {
            Result<DeploymentRecord> record = loadRecord(in);
            if (!record)
                return record.error();
            result.records.push_back(std::move(record.value()));
        }

        const std::uint64_t runningCount = in.readU64();
        if (runningCount > config.maxConcurrent)
            return makeError(ErrorCode::Geometry,
                             "ScenarioEngine: snapshot holds more running "
                             "instances than the concurrency cap");
        node.running.clear();
        for (std::uint64_t i = 0; i < runningCount && in.ok(); ++i) {
            Result<std::unique_ptr<WorkloadInstance>> instance =
                WorkloadInstance::restoreFromState(in);
            if (!instance)
                return instance.error();
            RunningApp app;
            app.instance = std::move(instance.value());
            app.server = in.readU64();
            app.link = in.readU64();
            app.reservedGb = in.readF64();
            if (in.ok() && (app.server >= topo.serverCount() ||
                            app.link >= topo.linkCount() ||
                            !(app.reservedGb >= 0.0)))
                return makeError(ErrorCode::Geometry,
                                 "ScenarioEngine: snapshot deployment "
                                 "route is outside the topology");
            node.running.push_back(std::move(app));
        }
        if (in.ok() && result.trace.size() != static_cast<std::size_t>(now_))
            return makeError(ErrorCode::Geometry,
                             "ScenarioEngine: snapshot trace length does "
                             "not match its tick cursor");
        if (in.ok() && result.concurrency.size() != result.trace.size())
            return makeError(ErrorCode::Geometry,
                             "ScenarioEngine: snapshot concurrency length "
                             "does not match its trace length");
    }
    totalRemoteTrafficGB = in.readF64();
    droppedArrivals = in.readU64();
    remoteFallbacks = in.readU64();
    const std::string snapshotTopology = in.readString();
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "ScenarioEngine: truncated snapshot section");
    if (snapshotTopology != topo.name())
        return makeError(ErrorCode::Geometry,
                         "ScenarioEngine: snapshot was taken on topology '" +
                             snapshotTopology +
                             "' but this engine runs on '" + topo.name() +
                             "'");
    if (now_ < 0)
        return makeError(ErrorCode::Geometry,
                         "ScenarioEngine: snapshot tick cursor is "
                         "negative");
    return {};
}

} // namespace adrias::scenario
