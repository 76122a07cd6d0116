#include "scenario/cluster.hh"

#include "common/logging.hh"
#include "fault/fault.hh"
#include "telemetry/watcher.hh"

namespace adrias::scenario
{

using workloads::WorkloadInstance;
using workloads::WorkloadSpec;

std::vector<ClusterResult::NodeRecord>
ClusterResult::allRecords() const
{
    std::vector<NodeRecord> all;
    for (std::size_t n = 0; n < nodes.size(); ++n)
        for (const DeploymentRecord &record : nodes[n].records)
            all.push_back({n, &record});
    return all;
}

ClusterPlacement
routeOnRack(ClusterPlacement placement, const WorkloadSpec &spec,
            const RackView &rack)
{
    if (placement.mode != MemoryMode::Remote)
        return placement;
    if (rack.topology == nullptr)
        panic("routeOnRack: RackView carries no topology");
    const testbed::Topology &topo = *rack.topology;
    std::int64_t best_link = -1;
    double best_avail = -1.0;
    for (std::size_t l : topo.linksFrom(placement.node)) {
        if (!rack.links[l].healthy())
            continue;
        const std::size_t s = topo.link(l).server;
        const double avail = rack.servers[s].availableGb;
        if (avail < spec.memoryFootprintGb)
            continue;
        // linksFrom is ascending, so a strict improvement test breaks
        // availability ties toward the lowest link index.
        if (avail > best_avail) {
            best_avail = avail;
            best_link = static_cast<std::int64_t>(l);
        }
    }
    if (best_link < 0) {
        // No healthy link reaches a server with room: degrade to the
        // node's local pool rather than refuse the deployment.
        placement.mode = MemoryMode::Local;
        placement.server = 0;
        placement.link = 0;
        return placement;
    }
    placement.link = static_cast<std::size_t>(best_link);
    placement.server = topo.link(placement.link).server;
    return placement;
}

ClusterScenarioRunner::ClusterScenarioRunner(testbed::Topology topology,
                                             ScenarioConfig config_)
    : topo(std::move(topology)), config(config_)
{
    if (config.durationSec <= 0)
        fatal("ClusterScenarioRunner: duration must be positive");
    if (config.spawnMinSec <= 0 ||
        config.spawnMaxSec < config.spawnMinSec)
        fatal("ClusterScenarioRunner: invalid spawn interval");
}

ClusterResult
ClusterScenarioRunner::run(ClusterPolicy &policy)
{
    const std::size_t node_count = topo.nodeCount();
    Rng rng(config.seed);
    testbed::RackTestbed rack(topo, rng.nextU64());
    rack.setNoise(config.counterNoise);
    fault::FaultInjector injector(config.faults);

    struct RunningApp
    {
        std::unique_ptr<WorkloadInstance> instance;
        std::size_t server = 0;
        std::size_t link = 0;
        double reservedGb = 0.0;
    };
    struct Node
    {
        std::unique_ptr<telemetry::Watcher> watcher;
        std::vector<RunningApp> running;
    };
    std::vector<Node> nodes(node_count);
    ClusterResult result;
    result.nodes.resize(node_count);
    result.topologyName = topo.name();
    for (std::size_t n = 0; n < node_count; ++n) {
        nodes[n].watcher = std::make_unique<telemetry::Watcher>(
            ScenarioRunner::kWindowSec * 4);
        nodes[n].watcher->configureLinks(topo.linksFrom(n).size());
    }

    // Per-link fault derating applied this tick (rebuilt every second).
    std::vector<double> link_bw(topo.linkCount(), 1.0);
    std::vector<double> link_lat(topo.linkCount(), 1.0);

    const auto makeRackView = [&]() {
        RackView view;
        view.topology = &topo;
        view.servers.resize(topo.serverCount());
        for (std::size_t s = 0; s < topo.serverCount(); ++s) {
            view.servers[s].capacityGb = topo.server(s).capacityGb;
            view.servers[s].availableGb = rack.availableGb(s);
        }
        view.links.resize(topo.linkCount());
        for (std::size_t l = 0; l < topo.linkCount(); ++l) {
            view.links[l].node = topo.link(l).node;
            view.links[l].server = topo.link(l).server;
            view.links[l].bwScale = link_bw[l];
            view.links[l].latencyScale = link_lat[l];
        }
        return view;
    };

    DeploymentId next_id = 1;
    SimTime next_arrival =
        rng.uniformInt(config.spawnMinSec, config.spawnMaxSec);

    for (SimTime now = 0; now < config.durationSec; ++now) {
        // --- per-link fault state for this tick -------------------------
        for (std::size_t l = 0; l < topo.linkCount(); ++l) {
            const fault::LinkState state =
                injector.linkStateAt(now, topo.link(l).name);
            link_bw[l] = state.bwScale;
            link_lat[l] = state.latencyScale;
            rack.setLinkFault(l, state.bwScale, state.latencyScale);
        }

        // --- arrivals ----------------------------------------------------
        while (now >= next_arrival) {
            next_arrival +=
                rng.uniformInt(config.spawnMinSec, config.spawnMaxSec);

            const ArrivalDraw arrival = drawArrival(config, rng);
            const WorkloadSpec *spec = arrival.spec;

            ClusterPlacement placement;
            if (arrival.isIBench) {
                // Background interference lands anywhere, either mode;
                // remote trashers still need a real route.
                placement.node = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(node_count) - 1));
                placement.mode = rng.bernoulli(0.5) ? MemoryMode::Remote
                                                    : MemoryMode::Local;
                placement = routeOnRack(placement, *spec, makeRackView());
            } else {
                std::vector<NodeView> views(node_count);
                for (std::size_t n = 0; n < node_count; ++n) {
                    views[n].watcher = nodes[n].watcher.get();
                    views[n].running = nodes[n].running.size();
                }
                placement = policy.placeRack(*spec, views,
                                             makeRackView(), now);
                if (placement.node >= node_count)
                    panic("ClusterPolicy returned an invalid node");
                if (placement.mode == MemoryMode::Remote) {
                    if (placement.link >= topo.linkCount())
                        panic("ClusterPolicy returned an invalid link");
                    const testbed::LinkDesc &link =
                        topo.link(placement.link);
                    if (link.node != placement.node ||
                        link.server != placement.server)
                        panic("ClusterPolicy placement link does not "
                              "connect its node to its server");
                }
            }

            Node &target = nodes[placement.node];
            if (target.running.size() >= config.maxConcurrent) {
                ++result.droppedArrivals;
                continue; // node full: drop
            }

            RunningApp app;
            if (placement.mode == MemoryMode::Remote) {
                // Reserve the footprint on the lending server for the
                // deployment's lifetime; a full server demotes the
                // placement to the node's local pool.
                if (rack.allocate(placement.server,
                                  spec->memoryFootprintGb)) {
                    app.server = placement.server;
                    app.link = placement.link;
                    app.reservedGb = spec->memoryFootprintGb;
                } else {
                    placement.mode = MemoryMode::Local;
                    ++result.remoteFallbacks;
                }
            }
            app.instance = std::make_unique<WorkloadInstance>(
                next_id++, *spec, placement.mode, now, rng.nextU64());
            target.running.push_back(std::move(app));
        }

        // --- one shared rack second --------------------------------------
        std::vector<testbed::LoadDescriptor> loads;
        std::vector<std::pair<std::size_t, std::size_t>> owner;
        for (std::size_t n = 0; n < node_count; ++n) {
            for (std::size_t i = 0; i < nodes[n].running.size(); ++i) {
                const RunningApp &app = nodes[n].running[i];
                testbed::LoadDescriptor load = app.instance->load();
                load.node = n;
                load.server = app.server;
                load.link = app.link;
                loads.push_back(load);
                owner.emplace_back(n, i);
            }
        }
        const testbed::RackTickResult tick = rack.tick(loads);

        for (std::size_t k = 0; k < loads.size(); ++k)
            nodes[owner[k].first]
                .running[owner[k].second]
                .instance->advance(tick.outcomes[k], now + 1);

        for (std::size_t n = 0; n < node_count; ++n) {
            Node &node = nodes[n];
            ScenarioResult &node_result = result.nodes[n];

            node.watcher->record(tick.nodes[n].counters, now);
            std::vector<testbed::LinkCounterSample> link_samples;
            link_samples.reserve(topo.linksFrom(n).size());
            for (std::size_t l : topo.linksFrom(n))
                link_samples.push_back(tick.links[l].counters);
            if (!link_samples.empty())
                node.watcher->recordLinks(link_samples);

            node_result.trace.push_back(tick.nodes[n].counters);
            node_result.concurrency.push_back(
                static_cast<int>(node.running.size()));
            node_result.totalRemoteTrafficGB +=
                tick.nodes[n].remoteTrafficGBps;
            result.totalRemoteTrafficGB +=
                tick.nodes[n].remoteTrafficGBps;

            for (std::size_t i = node.running.size(); i-- > 0;) {
                if (!node.running[i].instance->finished())
                    continue;
                const RunningApp &finished = node.running[i];
                DeploymentRecord record = completionRecord(
                    *finished.instance, now, node_result.trace);
                if (finished.reservedGb > 0.0)
                    rack.release(finished.server, finished.reservedGb);
                policy.onCompletion(n, record);
                node_result.records.push_back(std::move(record));
                node.running.erase(node.running.begin() +
                                   static_cast<std::ptrdiff_t>(i));
            }
        }
    }

    result.linkTotals.reserve(topo.linkCount());
    for (std::size_t l = 0; l < topo.linkCount(); ++l)
        result.linkTotals.push_back(rack.linkTotals(l));
    for (std::size_t n = 0; n < node_count; ++n) {
        result.nodes[n].watcherHealth = nodes[n].watcher->health();
        result.nodes[n].faultSummary = injector.stats();
    }
    return result;
}

} // namespace adrias::scenario
