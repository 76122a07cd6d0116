/**
 * @file
 * §VI-B (traffic) — Data moved over the FPGA interconnect under each
 * scheduler.
 *
 * Paper: Adrias cuts transmitted data by ~45% (β=0.8) and ~23% (β=0.7)
 * versus Random/Round-Robin, and up to 55% at iso-offload counts,
 * because it prefers offloading memory-light applications.
 */

#include <iostream>

#include "bench/common.hh"

namespace
{

using namespace adrias;

struct TrafficOutcome
{
    double traffic_gb = 0.0;
    std::size_t offloads = 0;
    std::size_t total = 0;
};

TrafficOutcome
evaluate(scenario::ClusterPolicy &policy, std::size_t repeats)
{
    TrafficOutcome outcome;
    for (std::size_t i = 0; i < repeats; ++i) {
        scenario::ScenarioRunner runner(
            bench::evalScenario(5000 + i * 11, 25));
        const auto result = runner.run(policy);
        outcome.traffic_gb += result.totalRemoteTrafficGB;
        for (const auto &record : result.records) {
            if (record.cls == WorkloadClass::Interference)
                continue;
            ++outcome.total;
            outcome.offloads += record.mode == MemoryMode::Remote;
        }
    }
    return outcome;
}

} // namespace

int
main()
{
    bench::banner("§VI-B — channel-traffic reduction",
                  "Adrias moves 23-45% less data than Random/RR; up to "
                  "55% less at iso-offload");

    core::AdriasStack stack(bench::stackOptions());
    const auto repeats = static_cast<std::size_t>(
        bench::envInt("ADRIAS_BENCH_SCENARIOS", 4) / 2 + 1);

    scenario::RandomPlacement random(5);
    const auto random_outcome = evaluate(random, repeats);
    core::RoundRobinScheduler rr;
    const auto rr_outcome = evaluate(rr, repeats);

    TextTable table({"policy", "offloaded apps", "channel traffic (GB)",
                     "vs random", "vs round-robin"});
    auto add_row = [&](const std::string &label,
                       const TrafficOutcome &outcome) {
        table.addRow(label,
                     {static_cast<double>(outcome.offloads),
                      outcome.traffic_gb,
                      outcome.traffic_gb / random_outcome.traffic_gb,
                      outcome.traffic_gb / rr_outcome.traffic_gb},
                     2);
    };
    add_row("random", random_outcome);
    add_row("round-robin", rr_outcome);
    for (double beta : {0.8, 0.7}) {
        core::AdriasConfig config;
        config.beta = beta;
        auto orchestrator = stack.makeOrchestrator(config);
        add_row(orchestrator.name(), evaluate(orchestrator, repeats));
    }

    std::cout << table.toString();
    std::cout << "\nShape check: the adrias rows sit well below 1.0 in "
                 "the vs-random / vs-round-robin columns (paper: 0.55 "
                 "and 0.77 respectively).\n";
    return 0;
}
