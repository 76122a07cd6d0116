/**
 * @file
 * Fig. 16 — Orchestration evaluation for best-effort applications:
 * execution-time distribution and local/remote placement counts under
 * Random, Round-Robin, All-Local and Adrias with β ∈ {1.0, 0.9, 0.8,
 * 0.7, 0.6}.
 *
 * Paper: Random/RR worst; β=1/0.9 ≈ All-Local; β=0.8 offloads ~10%
 * with ~0.5% median drop; β=0.7 offloads ~35% with ~15% drop; β=0.6
 * over-offloads and degrades badly.  Adrias favours gmm/lda-style
 * overlapping apps for offload and avoids nweight.
 */

#include <iostream>
#include <map>

#include "bench/common.hh"

namespace
{

using namespace adrias;

struct PolicyOutcome
{
    std::string name;
    std::vector<double> exec_times;
    std::size_t local = 0;
    std::size_t remote = 0;
    std::map<std::string, std::size_t> remote_per_app;
    double traffic_gb = 0.0;
};

PolicyOutcome
evaluate(scenario::ClusterPolicy &policy, std::size_t repeats)
{
    PolicyOutcome outcome;
    outcome.name = policy.name();
    for (std::size_t i = 0; i < repeats; ++i) {
        scenario::ScenarioRunner runner(
            bench::evalScenario(3000 + i * 7, 25));
        const auto result = runner.run(policy);
        outcome.traffic_gb += result.totalRemoteTrafficGB;
        for (const auto &record : result.records) {
            if (record.cls != WorkloadClass::BestEffort)
                continue;
            outcome.exec_times.push_back(record.execTimeSec);
            if (record.mode == MemoryMode::Remote) {
                ++outcome.remote;
                ++outcome.remote_per_app[record.name];
            } else {
                ++outcome.local;
            }
        }
    }
    return outcome;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::initFromArgs(argc, argv);
    bench::banner("Fig. 16 — BE orchestration vs baselines",
                  "beta=0.8: ~10% offload, ~0.5% median drop; "
                  "beta=0.7: ~35% offload, ~15% drop; Random/RR worst");

    core::AdriasStack stack(bench::stackOptions());
    const auto repeats = static_cast<std::size_t>(
        bench::envInt("ADRIAS_BENCH_SCENARIOS", 4) / 2 + 1);

    std::vector<PolicyOutcome> outcomes;
    {
        scenario::RandomPlacement random(5);
        outcomes.push_back(evaluate(random, repeats));
        core::RoundRobinScheduler rr;
        outcomes.push_back(evaluate(rr, repeats));
        core::AllLocalScheduler all_local;
        outcomes.push_back(evaluate(all_local, repeats));
    }
    for (double beta : {1.0, 0.9, 0.8, 0.7, 0.6}) {
        core::AdriasConfig config;
        config.beta = beta;
        auto orchestrator = stack.makeOrchestrator(config);
        outcomes.push_back(evaluate(orchestrator, repeats));
    }

    double local_median = 1.0;
    for (const auto &outcome : outcomes)
        if (outcome.name == "all-local")
            local_median = stats::DistributionSummary::from(
                               outcome.exec_times)
                               .median;

    TextTable table({"policy", "n", "median (s)", "p75 (s)", "p95 (s)",
                     "offload %", "median vs all-local"});
    for (const auto &outcome : outcomes) {
        const auto summary =
            stats::DistributionSummary::from(outcome.exec_times);
        const double total =
            static_cast<double>(outcome.local + outcome.remote);
        table.addRow(outcome.name,
                     {static_cast<double>(summary.count), summary.median,
                      summary.p75, summary.p95,
                      total > 0.0 ? 100.0 * outcome.remote / total : 0.0,
                      summary.median / local_median},
                     2);
    }
    std::cout << table.toString();

    // Which applications Adrias chooses to offload (paper §VII:
    // overlapping apps like gmm/lda yes, nweight no).
    std::cout << "\nAdrias(beta=0.7) remote placements per app:\n";
    const auto &adrias07 = outcomes[outcomes.size() - 2];
    TextTable peraPP({"app", "remote count"});
    for (const auto &[name, count] : adrias07.remote_per_app)
        peraPP.addRow(name, {static_cast<double>(count)}, 0);
    std::cout << peraPP.toString();

    std::cout << "\nShape check: naive schedulers dominate the tail; "
                 "beta sweeps trade offload fraction against median "
                 "drop; remote-averse apps stay local.\n";

    const std::string obs_report = obs::finishRun();
    if (!obs_report.empty())
        std::cout << "\nObservability summary:\n" << obs_report;
    return 0;
}
