/**
 * @file
 * Extension (§II) — L1/L2 complementarity: the paper argues that
 * placement-time orchestration (L1, Adrias) and runtime management
 * (L2, e.g. migration) are orthogonal layers that compose.  We measure
 * all four combinations: {random, adrias} x {no runtime, threshold
 * migrator}.
 *
 * Expected: the migrator rescues reckless random placements
 * substantially, while adding it on top of Adrias changes little —
 * good placement leaves few mistakes for the runtime layer to fix.
 */

#include <iostream>

#include "bench/common.hh"

namespace
{

using namespace adrias;

struct Cell
{
    double median = 0.0;
    double p95 = 0.0;
    std::size_t migrations = 0;
};

Cell
evaluate(scenario::ClusterPolicy &placement, bool with_migrator,
         std::size_t repeats)
{
    Cell cell;
    std::vector<double> times;
    for (std::size_t i = 0; i < repeats; ++i) {
        scenario::ScenarioRunner runner(
            bench::evalScenario(8000 + i * 13, 20));
        core::MigratorConfig config;
        config.slowdownThreshold = 2.0;
        core::ThresholdMigrator migrator(config);
        const auto result =
            runner.run(placement, with_migrator ? &migrator : nullptr);
        for (const auto &record : result.records) {
            if (record.cls != WorkloadClass::BestEffort)
                continue;
            times.push_back(record.execTimeSec);
            cell.migrations += record.migrations;
        }
    }
    cell.median = stats::quantile(times, 0.5);
    cell.p95 = stats::quantile(times, 0.95);
    return cell;
}

} // namespace

int
main()
{
    bench::banner("Extension §II — L1 placement x L2 migration",
                  "paper claims the layers are orthogonal and "
                  "complementary; no figure exists");

    core::AdriasStack stack(bench::stackOptions());
    const auto repeats = static_cast<std::size_t>(
        bench::envInt("ADRIAS_BENCH_SCENARIOS", 4) / 2 + 1);

    TextTable table({"L1 placement", "L2 runtime", "BE median (s)",
                     "BE p95 (s)", "migrations"});
    auto add_rows = [&](scenario::ClusterPolicy &policy) {
        for (bool with_migrator : {false, true}) {
            const Cell cell =
                evaluate(policy, with_migrator, repeats);
            table.addRow({policy.name(),
                          with_migrator ? "threshold-migrator" : "none",
                          formatDouble(cell.median, 1),
                          formatDouble(cell.p95, 1),
                          std::to_string(cell.migrations)});
        }
    };

    scenario::RandomPlacement random(5);
    add_rows(random);
    core::AdriasConfig config;
    config.beta = 0.8;
    auto adrias = stack.makeOrchestrator(config);
    add_rows(adrias);

    std::cout << table.toString();
    std::cout << "\nShape check: the migrator sharply improves the "
                 "random rows' tail and barely changes the adrias rows "
                 "— L1 quality determines how much work L2 has left.\n";
    return 0;
}
