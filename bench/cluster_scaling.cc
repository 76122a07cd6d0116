/**
 * @file
 * Extension (§VII) — cluster-level Adrias: per-node Watchers feeding
 * the shared Predictor, centralized (node, mode) decisions with
 * iso-QoS tie-breaking.  No paper figure exists for this; the paper
 * describes the design and we measure it: Adrias vs random and
 * all-local (least-loaded node) baselines across cluster sizes.
 *
 * A second section runs the same arrival stream on shared M×N rack
 * topologies (per-link contention, capacity-backed remote placement)
 * and emits BENCH_topology.json for the perf-regression gate
 * (tools/bench_compare against bench/baselines/BENCH_topology.json).
 */

#include <iostream>

#include "bench/common.hh"
#include "bench/microbench.hh"
#include "common/threadpool.hh"
#include "core/schedulers.hh"
#include "testbed/rack.hh"
#include "testbed/topology.hh"

namespace
{

using namespace adrias;

struct Report
{
    double be_median = 0.0;
    double be_p95 = 0.0;
    std::size_t completed = 0;
    std::size_t offloads = 0;
    double traffic_gb = 0.0;
};

Report
evaluate(scenario::ClusterPolicy &policy, std::size_t nodes,
         SimTime duration)
{
    scenario::ScenarioConfig config;
    config.durationSec = duration;
    config.spawnMinSec = 3;
    config.spawnMaxSec = 10; // congested stream: a single node drowns
    config.seed = 7100;
    config.maxConcurrent = 20;
    config.topology = "pairs-" + std::to_string(nodes);
    scenario::ClusterScenarioRunner runner(
        testbed::topologyByName(config.topology), config);
    const auto result = runner.run(policy);

    Report report;
    report.traffic_gb = result.totalRemoteTrafficGB;
    std::vector<double> times;
    for (const auto &entry : result.allRecords()) {
        if (entry.record->cls == WorkloadClass::Interference)
            continue;
        ++report.completed;
        report.offloads += entry.record->mode == MemoryMode::Remote;
        if (entry.record->cls == WorkloadClass::BestEffort)
            times.push_back(entry.record->execTimeSec);
    }
    report.be_median = stats::quantile(times, 0.5);
    report.be_p95 = stats::quantile(times, 0.95);
    return report;
}

struct RackReport
{
    Report base;
    double delivered_gb = 0.0;
    std::size_t dropped = 0;
    std::size_t fallbacks = 0;
};

RackReport
evaluateRack(scenario::ClusterPolicy &policy, const std::string &topo,
             SimTime duration)
{
    scenario::ScenarioConfig config;
    config.durationSec = duration;
    config.spawnMinSec = 3;
    config.spawnMaxSec = 10;
    config.seed = 7100;
    config.maxConcurrent = 20;
    config.topology = topo;
    scenario::ClusterScenarioRunner runner(
        testbed::topologyByName(topo), config);
    const auto result = runner.run(policy);

    RackReport report;
    report.base.traffic_gb = result.totalRemoteTrafficGB;
    report.dropped = result.droppedArrivals;
    report.fallbacks = result.remoteFallbacks;
    for (const auto &link : result.linkTotals)
        report.delivered_gb += link.deliveredGb;
    std::vector<double> times;
    for (const auto &entry : result.allRecords()) {
        if (entry.record->cls == WorkloadClass::Interference)
            continue;
        ++report.base.completed;
        report.base.offloads += entry.record->mode == MemoryMode::Remote;
        if (entry.record->cls == WorkloadClass::BestEffort)
            times.push_back(entry.record->execTimeSec);
    }
    report.base.be_median = stats::quantile(times, 0.5);
    report.base.be_p95 = stats::quantile(times, 0.95);
    return report;
}

/** Mixed local/remote tick input spread across a rack's links. */
std::vector<testbed::LoadDescriptor>
rackLoads(const testbed::Topology &topo, std::size_t apps)
{
    std::vector<testbed::LoadDescriptor> loads;
    const auto &sparks = workloads::sparkBenchmarks();
    for (std::size_t i = 0; i < apps; ++i) {
        const std::size_t node = i % topo.nodeCount();
        auto load = sparks[i % sparks.size()].toLoad(
            static_cast<DeploymentId>(i),
            i % 2 ? MemoryMode::Remote : MemoryMode::Local);
        load.node = node;
        if (load.mode == MemoryMode::Remote) {
            const auto &links = topo.linksFrom(node);
            const std::size_t link = links[i % links.size()];
            load.link = link;
            load.server = topo.link(link).server;
        }
        loads.push_back(load);
    }
    return loads;
}

bench::micro::Result
benchRackTick(const std::string &topo_name, std::size_t apps)
{
    testbed::RackTestbed rack(testbed::topologyByName(topo_name));
    rack.setNoise(0.0);
    const auto loads = rackLoads(rack.topology(), apps);
    return bench::micro::measure(
        "rack_tick_" + topo_name + "_apps" + std::to_string(apps),
        [&] { rack.tick(loads); });
}

bench::micro::Result
benchRackClusterMinute(const std::string &topo_name)
{
    // One simulated minute of a congested rack scenario end to end:
    // placement, per-link queueing, capacity accounting, completion.
    return bench::micro::measure(
        "rack_cluster_minute_" + topo_name,
        [&] {
            scenario::ScenarioConfig config;
            config.durationSec = 60;
            config.spawnMinSec = 3;
            config.spawnMaxSec = 10;
            config.seed = 7100;
            config.maxConcurrent = 20;
            config.topology = topo_name;
            scenario::ClusterScenarioRunner runner(
                testbed::topologyByName(topo_name), config);
            core::LeastLoadedRemotePolicy policy;
            runner.run(policy);
        },
        bench::micro::envCount("ADRIAS_BENCH_ITERS", 15),
        bench::micro::envCount("ADRIAS_BENCH_WARMUP", 2));
}

} // namespace

int
main()
{
    bench::banner("Extension §VII — cluster-level orchestration",
                  "design-only in the paper: centralized Adrias with "
                  "per-node telemetry and iso-QoS load tie-breaks");

    core::AdriasStack stack(bench::stackOptions());
    const SimTime duration = bench::envInt("ADRIAS_BENCH_DURATION", 1800);

    TextTable table({"config", "nodes", "completed", "BE median (s)",
                     "BE p95 (s)", "offloads", "traffic (GB)"});
    for (std::size_t nodes : {2, 4}) {
        scenario::RandomPlacement random(5);
        core::AllLocalScheduler least_loaded;
        core::AdriasConfig config;
        config.beta = 0.8;
        config.defaultQosP99Ms = 5.0;
        core::AdriasOrchestrator adrias(stack.predictor(),
                                        stack.signatures(), config);
        for (auto *policy :
             std::initializer_list<scenario::ClusterPolicy *>{
                 &random, &least_loaded, &adrias}) {
            const Report report = evaluate(*policy, nodes, duration);
            table.addRow(std::to_string(nodes) + "x " + policy->name(),
                         {static_cast<double>(nodes),
                          static_cast<double>(report.completed),
                          report.be_median, report.be_p95,
                          static_cast<double>(report.offloads),
                          report.traffic_gb},
                         1);
        }
    }
    std::cout << table.toString();
    std::cout << "\nShape check: adrias matches all-local's "
                 "medians while completing comparable work and using "
                 "remote memory; random trails both.\n";

    TextTable rack_table({"config", "completed", "BE median (s)",
                          "BE p95 (s)", "offloads", "dropped",
                          "fallbacks", "link GB"});
    for (const char *topo : {"rack-2x2-cxl", "rack-4x4-mixed"}) {
        scenario::RandomPlacement random(5);
        core::LeastLoadedRemotePolicy least_remote;
        core::AdriasConfig config;
        config.beta = 0.8;
        config.defaultQosP99Ms = 5.0;
        core::AdriasOrchestrator adrias(stack.predictor(),
                                        stack.signatures(), config);
        for (auto *policy :
             std::initializer_list<scenario::ClusterPolicy *>{
                 &random, &least_remote, &adrias}) {
            const RackReport report =
                evaluateRack(*policy, topo, duration);
            rack_table.addRow(
                std::string(topo) + " " + policy->name(),
                {static_cast<double>(report.base.completed),
                 report.base.be_median, report.base.be_p95,
                 static_cast<double>(report.base.offloads),
                 static_cast<double>(report.dropped),
                 static_cast<double>(report.fallbacks),
                 report.delivered_gb},
                1);
        }
    }
    std::cout << "\n" << rack_table.toString();
    std::cout << "\nShape check: on a shared rack the link-aware "
                 "policies keep offloading without drops; random "
                 "queues harder on the shared links.\n\n";

    // Perf gate: rack-model hot paths, single-threaded for stable
    // medians (tools/bench_compare vs BENCH_topology.json baseline).
    ScopedThreadOverride serial(1);
    std::vector<bench::micro::Result> results;
    results.push_back(benchRackTick("rack-2x2-cxl", 16));
    results.push_back(benchRackTick("rack-4x4-mixed", 32));
    results.push_back(benchRackClusterMinute("rack-2x2-cxl"));
    bench::micro::printResults("topology", results);
    bench::micro::writeJson(
        bench::micro::jsonPath("BENCH_topology.json"), "topology",
        results);
    std::cout << "\nWrote "
              << bench::micro::jsonPath("BENCH_topology.json") << "\n";
    return 0;
}
