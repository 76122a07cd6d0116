/**
 * @file
 * Fig. 17 — Orchestration evaluation for latency-critical
 * applications: number of QoS violations and number of offloads for
 * Redis and Memcached across five QoS levels, under Random,
 * Round-Robin, All-Local and Adrias.
 *
 * Paper: Adrias eliminates most violations at loose QoS levels (0-2)
 * while offloading ~1/3 of servers; at strict levels it tracks
 * All-Local with ~5% (Redis) / ~20% (Memcached) extra violations.
 */

#include <iostream>

#include "bench/common.hh"

namespace
{

using namespace adrias;

/** QoS levels derived from the Fig. 10 distributions (p99 quantiles
 *  of random placements): level 0 loosest .. level 4 strictest. */
std::vector<double>
qosLevels(const std::vector<double> &p99s)
{
    return {
        stats::quantile(p99s, 0.95), stats::quantile(p99s, 0.85),
        stats::quantile(p99s, 0.70), stats::quantile(p99s, 0.55),
        stats::quantile(p99s, 0.40),
    };
}

struct LcOutcome
{
    std::size_t violations = 0;
    std::size_t offloads = 0;
    std::size_t total = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    obs::initFromArgs(argc, argv);
    bench::banner("Fig. 17 — LC orchestration: QoS violations vs "
                  "offloads",
                  "Adrias ~ All-Local violations while offloading ~1/3 "
                  "at loose QoS; near-All-Local at strict QoS");

    core::AdriasStack stack(bench::stackOptions());
    const auto repeats = static_cast<std::size_t>(
        bench::envInt("ADRIAS_BENCH_SCENARIOS", 4) / 2 + 1);

    // Calibrate QoS levels per server from random-placement runs
    // (independent repeats, one policy seed each, swept in parallel).
    std::map<std::string, std::vector<double>> p99_pool;
    {
        std::vector<scenario::SweepItem> sweep(repeats);
        for (std::size_t i = 0; i < repeats; ++i) {
            sweep[i].config = bench::evalScenario(4000 + i * 3, 25);
            sweep[i].config.lcFraction = 0.30;
            sweep[i].policySeed = 5 + i;
        }
        for (const auto &result : scenario::runScenarioSweep(sweep))
            for (const auto &record : result.records)
                if (record.cls == WorkloadClass::LatencyCritical)
                    p99_pool[record.name].push_back(record.p99Ms);
    }

    for (const auto &spec : workloads::latencyCriticalBenchmarks()) {
        const auto levels = qosLevels(p99_pool[spec.name]);
        std::cout << "\n--- " << spec.name << " (QoS levels, p99 ms: ";
        for (double q : levels)
            std::cout << formatDouble(q, 2) << " ";
        std::cout << ") ---\n";

        TextTable table({"policy", "QoS0 viol/off", "QoS1 viol/off",
                         "QoS2 viol/off", "QoS3 viol/off",
                         "QoS4 viol/off"});

        auto eval_policy = [&](scenario::ClusterPolicy &policy,
                               bool adrias_qos, double qos_value) {
            LcOutcome outcome;
            for (std::size_t i = 0; i < repeats; ++i) {
                scenario::ScenarioConfig config =
                    bench::evalScenario(4000 + i * 3, 25);
                config.lcFraction = 0.30;
                scenario::ScenarioRunner runner(config);
                const auto result = runner.run(policy);
                for (const auto &record : result.records) {
                    if (record.cls != WorkloadClass::LatencyCritical ||
                        record.name != spec.name)
                        continue;
                    ++outcome.total;
                    outcome.violations += record.p99Ms > qos_value;
                    outcome.offloads +=
                        record.mode == MemoryMode::Remote;
                }
            }
            (void)adrias_qos;
            return outcome;
        };

        auto row_for = [&](const std::string &label, auto make_policy) {
            std::vector<std::string> cells{label};
            for (double qos : levels) {
                auto policy = make_policy(qos);
                const LcOutcome outcome = eval_policy(*policy, true, qos);
                cells.push_back(std::to_string(outcome.violations) + "/" +
                                std::to_string(outcome.offloads));
            }
            table.addRow(cells);
        };

        row_for("random", [&](double) {
            return std::make_unique<scenario::RandomPlacement>(5);
        });
        row_for("round-robin", [&](double) {
            return std::make_unique<core::RoundRobinScheduler>();
        });
        row_for("all-local", [&](double) {
            return std::make_unique<core::AllLocalScheduler>();
        });
        row_for("adrias", [&](double qos) {
            core::AdriasConfig config;
            config.beta = 0.8;
            config.defaultQosP99Ms = qos;
            return std::make_unique<core::AdriasOrchestrator>(
                stack.predictor(), stack.signatures(), config);
        });

        std::cout << table.toString();
    }

    std::cout << "\nShape check: Adrias rows show near-All-Local "
                 "violation counts with substantially more offloads at "
                 "loose QoS levels.\n";

    const std::string obs_report = obs::finishRun();
    if (!obs_report.empty())
        std::cout << "\nObservability summary:\n" << obs_report;
    return 0;
}
