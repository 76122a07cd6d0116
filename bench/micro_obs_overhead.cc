/**
 * @file
 * micro — observability overhead (DESIGN.md §10).
 *
 * Runs the same RandomPlacement scenario three ways — obs fully off,
 * metrics armed, metrics + tracing armed — and reports the relative
 * overhead of the instrumented hot paths (testbed tick, watcher
 * record, scenario loop).  The acceptance bar is <2% for armed
 * metrics; the bench exits non-zero past a generous 10% so a loaded
 * CI machine cannot flake it.
 *
 * In a -DADRIAS_OBS=OFF build the same binary instead proves the layer
 * compiled out: arming is a no-op, counters never move and the tracer
 * records nothing.  CI registers that flavor as the `obs_compiled_out`
 * ctest (label: obs).
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>

#include "bench/common.hh"

namespace
{

using namespace adrias;

/** Seconds of wall clock to run one scenario rep. */
double
runOnce(std::uint64_t seed)
{
    scenario::RandomPlacement policy(seed);
    scenario::ScenarioConfig config = bench::evalScenario(seed, 20);
    // Long enough that a timed rep is tens of milliseconds; otherwise
    // the overhead percentages just measure scheduler noise.
    config.durationSec = bench::envInt("ADRIAS_BENCH_DURATION", 20000);
    scenario::ScenarioRunner runner(config);
    const auto begin = std::chrono::steady_clock::now();
    const auto result = runner.run(policy);
    const auto end = std::chrono::steady_clock::now();
    if (result.records.empty())
        fatal("micro_obs_overhead: scenario completed nothing");
    return std::chrono::duration<double>(end - begin).count();
}

/** Minimum of `reps` timed runs (all with the current obs switches). */
double
minSeconds(int reps, bool clear_between)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        if (clear_between)
            obs::resetAll(); // keep the tracer off its event cap
        const double t = runOnce(4242);
        best = r == 0 ? t : std::min(best, t);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::initFromArgs(argc, argv);
    bench::banner("micro — observability overhead",
                  "armed metrics cost <2% on the scenario hot path; "
                  "ADRIAS_OBS=OFF compiles the layer to no-ops");

    const int reps = static_cast<int>(bench::envInt("ADRIAS_BENCH_REPS", 3));

    if (!obs::compiledIn()) {
        // Compiled-out build: prove the switches are inert.
        obs::setEnabled(true);
        obs::Tracer::global().setEnabled(true);
        obs::MetricsRegistry::global().counter("probe").add(7);
        obs::Tracer::global().simInstant("probe", "probe", 1);
        (void)runOnce(4242);

        bool inert = !obs::enabled();
        inert = inert && !obs::Tracer::global().enabled();
        inert = inert &&
                obs::MetricsRegistry::global().counter("probe").get() == 0;
        inert = inert && obs::Tracer::global().eventCount() == 0;
        inert = inert && obs::finishRun().empty();

        std::cout << "compiled_in: false\n"
                  << "inert: " << (inert ? "yes" : "NO") << "\n";

        const std::string path =
            bench::outputPath("micro_obs_overhead.json");
        std::ofstream out(path, std::ios::binary);
        out << "{\n  \"compiled_in\": false,\n  \"inert\": "
            << (inert ? "true" : "false") << "\n}\n";
        std::cout << "JSON written to " << path << "\n";
        return inert ? 0 : 1;
    }

    // Warm up allocators and page cache before timing anything.
    (void)runOnce(4242);

    obs::setEnabled(false);
    obs::Tracer::global().setEnabled(false);
    const double baseline_s = minSeconds(reps, false);

    obs::setEnabled(true);
    const double metrics_s = minSeconds(reps, false);

    obs::Tracer::global().setEnabled(true);
    const double trace_s = minSeconds(reps, true);

    obs::Tracer::global().setEnabled(false);
    obs::setEnabled(false);

    const auto overhead_pct = [baseline_s](double t) {
        return 100.0 * (t - baseline_s) / baseline_s;
    };
    const double metrics_pct = overhead_pct(metrics_s);
    const double trace_pct = overhead_pct(trace_s);

    TextTable table({"mode", "best (s)", "overhead %"});
    table.addRow("off", {baseline_s, 0.0}, 3);
    table.addRow("metrics", {metrics_s, metrics_pct}, 3);
    table.addRow("metrics+trace", {trace_s, trace_pct}, 3);
    std::cout << table.toString();

    const std::string path = bench::outputPath("micro_obs_overhead.json");
    std::ofstream out(path, std::ios::binary);
    out << "{\n  \"compiled_in\": true,\n  \"baseline_s\": " << baseline_s
        << ",\n  \"metrics_s\": " << metrics_s
        << ",\n  \"trace_s\": " << trace_s
        << ",\n  \"overhead_metrics_pct\": " << metrics_pct
        << ",\n  \"overhead_trace_pct\": " << trace_pct << "\n}\n";
    std::cout << "JSON written to " << path << "\n";

    // Gate far above the 2% target so only a real regression trips it.
    if (metrics_pct > 10.0) {
        std::cout << "ERROR: armed metrics cost " << metrics_pct
                  << "% (>10%)\n";
        return 1;
    }

    const std::string obs_report = obs::finishRun();
    if (!obs_report.empty())
        std::cout << "\nObservability summary:\n" << obs_report;
    return 0;
}
