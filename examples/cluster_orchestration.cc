/**
 * @file
 * Cluster orchestration (paper §VII made concrete): a congested
 * arrival stream hits a cluster of disaggregated-memory nodes; the
 * centralized Adrias orchestrator consults every node's Watcher and
 * picks (node, memory mode) per application, breaking iso-QoS ties by
 * node load.  Compared against random and all-local (least-loaded
 * node) baselines.
 *
 * Usage:  ./build/examples/cluster_orchestration [nodes] [duration]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/adrias.hh"

using namespace adrias;

namespace
{

void
report(const std::string &label, const scenario::ClusterResult &result)
{
    std::vector<double> be_times;
    std::size_t offloads = 0, apps = 0;
    for (const auto &entry : result.allRecords()) {
        if (entry.record->cls == WorkloadClass::Interference)
            continue;
        ++apps;
        offloads += entry.record->mode == MemoryMode::Remote;
        if (entry.record->cls == WorkloadClass::BestEffort)
            be_times.push_back(entry.record->execTimeSec);
    }
    std::cout << "  " << label << ": " << apps << " apps completed, "
              << "BE median "
              << formatDouble(stats::quantile(be_times, 0.5), 1)
              << " s, p95 "
              << formatDouble(stats::quantile(be_times, 0.95), 1)
              << " s, " << offloads << " offloads, "
              << formatDouble(result.totalRemoteTrafficGB, 0)
              << " GB over the channels\n";

    std::cout << "    per-node completions:";
    for (const auto &node : result.nodes)
        std::cout << " " << node.records.size();
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t nodes =
        argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 3;
    const SimTime duration = argc > 2 ? std::atol(argv[2]) : 1500;

    std::cout << "Training the shared prediction stack...\n";
    core::AdriasStack::BuildOptions options;
    options.scenarios = 4;
    options.scenarioDurationSec = 1500;
    options.model.epochs = 25;
    core::AdriasStack stack(options);

    scenario::ScenarioConfig config;
    config.durationSec = duration;
    config.spawnMinSec = 3;
    config.spawnMaxSec = 9; // heavy stream: one node cannot keep up
    config.seed = 2024;
    config.maxConcurrent = 20;
    // K independent ThymesisFlow borrower/lender pairs.
    config.topology = "pairs-" + std::to_string(nodes);

    std::cout << "Replaying one arrival stream on a " << nodes
              << "-node cluster under three policies...\n\n";

    {
        scenario::RandomPlacement random(5);
        scenario::ClusterScenarioRunner runner(
            testbed::topologyByName(config.topology), config);
        report("random      ", runner.run(random));
    }
    {
        core::AllLocalScheduler all_local;
        scenario::ClusterScenarioRunner runner(
            testbed::topologyByName(config.topology), config);
        report("all-local   ", runner.run(all_local));
    }
    {
        core::AdriasConfig adrias_config;
        adrias_config.beta = 0.8;
        adrias_config.defaultQosP99Ms = 5.0;
        core::AdriasOrchestrator adrias(stack.predictor(),
                                        stack.signatures(), adrias_config);
        scenario::ClusterScenarioRunner runner(
            testbed::topologyByName(config.topology), config);
        report("adrias-b0.8 ", runner.run(adrias));
    }

    std::cout << "\nExpected: adrias completes as much work as "
                 "all-local while exploiting remote memory, and "
                 "clearly beats random placement.\n";
    return 0;
}
