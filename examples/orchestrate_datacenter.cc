/**
 * @file
 * Datacenter orchestration scenario: trains the Adrias stack, then
 * replays the same randomized arrival stream under every scheduling
 * policy and compares performance, offload counts and channel traffic
 * side by side — the paper's §VI-B story as a single program.
 *
 * Usage:  ./build/examples/orchestrate_datacenter [duration-seconds]
 */

#include <cstdlib>
#include <iostream>

#include "core/adrias.hh"

using namespace adrias;

namespace
{

struct PolicyReport
{
    std::string name;
    double be_median = 0.0;
    double be_p95 = 0.0;
    double lc_p99_median = 0.0;
    std::size_t offloads = 0;
    std::size_t apps = 0;
    double traffic_gb = 0.0;
};

PolicyReport
runPolicy(scenario::ClusterPolicy &policy, SimTime duration)
{
    scenario::ScenarioConfig config;
    config.durationSec = duration;
    config.spawnMinSec = 5;
    config.spawnMaxSec = 25;
    config.seed = 4242; // identical arrival stream for every policy
    scenario::ScenarioRunner runner(config);
    const auto result = runner.run(policy);

    PolicyReport report;
    report.name = policy.name();
    report.traffic_gb = result.totalRemoteTrafficGB;
    std::vector<double> be_times, lc_p99s;
    for (const auto &record : result.records) {
        if (record.cls == WorkloadClass::Interference)
            continue;
        ++report.apps;
        report.offloads += record.mode == MemoryMode::Remote;
        if (record.cls == WorkloadClass::BestEffort)
            be_times.push_back(record.execTimeSec);
        else
            lc_p99s.push_back(record.p99Ms);
    }
    report.be_median = stats::quantile(be_times, 0.5);
    report.be_p95 = stats::quantile(be_times, 0.95);
    if (!lc_p99s.empty())
        report.lc_p99_median = stats::quantile(lc_p99s, 0.5);
    return report;
}

} // namespace

int
main(int argc, char **argv)
{
    const SimTime duration = argc > 1 ? std::atol(argv[1]) : 1800;

    std::cout << "Training the Adrias stack (offline phase)...\n";
    core::AdriasStack::BuildOptions options;
    options.scenarios = 4;
    options.scenarioDurationSec = 1500;
    options.model.epochs = 25;
    core::AdriasStack stack(options);

    std::cout << "Replaying a " << duration
              << " s arrival stream under each policy...\n\n";

    std::vector<PolicyReport> reports;
    scenario::RandomPlacement random(5);
    reports.push_back(runPolicy(random, duration));
    core::RoundRobinScheduler rr;
    reports.push_back(runPolicy(rr, duration));
    core::AllLocalScheduler all_local;
    reports.push_back(runPolicy(all_local, duration));
    core::LeastLoadedRemotePolicy all_remote;
    reports.push_back(runPolicy(all_remote, duration));
    for (double beta : {0.8, 0.7}) {
        core::AdriasConfig config;
        config.beta = beta;
        config.defaultQosP99Ms = 2.0;
        auto orchestrator = stack.makeOrchestrator(config);
        reports.push_back(runPolicy(orchestrator, duration));
    }

    TextTable table({"policy", "BE median (s)", "BE p95 (s)",
                     "LC p99 med (ms)", "offloads", "apps",
                     "traffic (GB)"});
    for (const auto &report : reports) {
        table.addRow(report.name,
                     {report.be_median, report.be_p95,
                      report.lc_p99_median,
                      static_cast<double>(report.offloads),
                      static_cast<double>(report.apps),
                      report.traffic_gb},
                     2);
    }
    std::cout << table.toString()
              << "\nExpected: adrias rows approach all-local "
                 "performance while offloading a meaningful share of "
                 "apps with less traffic than random/round-robin.\n";
    return 0;
}
