/**
 * @file
 * Parallel-scaling microbenchmark (DESIGN.md §9): measures serial vs
 * multi-threaded wall time for the multi-seed scenario sweep — the
 * ThreadPool's job: independent scenario runs — and emits a
 * machine-readable JSON report for CI artifacts.
 *
 * Each configuration also cross-checks its results against the serial
 * run, so the report doubles as an equivalence smoke test.
 *
 * Each configuration reports the steady-state MEDIAN over several
 * iterations after dropping warm-up runs (pool spin-up, cold caches);
 * the iteration counts are recorded in the JSON.
 *
 * Knobs: ADRIAS_BENCH_OUTDIR (JSON destination, default out/),
 * ADRIAS_BENCH_DURATION (sweep scenario length), ADRIAS_BENCH_ITERS /
 * ADRIAS_BENCH_WARMUP (measured / dropped iterations).  Thread counts
 * probed are {1, 2, 4, hardware} deduplicated.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "common/threadpool.hh"

namespace
{

using namespace adrias;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Measurement
{
    unsigned threads = 1;
    double seconds = 0.0; // steady-state median per iteration
    std::size_t iterations = 0;
    std::size_t warmup = 0;
    bool identical = true;
};

/**
 * Run `fn` warmup+iters times and return the median of the steady-state
 * iterations.  Warm-up runs are dropped: the first iterations pay for
 * thread-pool spin-up and cold caches and would skew a mean badly.
 */
template <typename Fn>
double
medianSeconds(Fn &&fn, std::size_t iters, std::size_t warmup)
{
    for (std::size_t i = 0; i < warmup; ++i)
        fn();
    std::vector<double> samples;
    samples.reserve(iters);
    for (std::size_t i = 0; i < iters; ++i) {
        const auto start = Clock::now();
        fn();
        samples.push_back(secondsSince(start));
    }
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = samples.size() / 2;
    return samples.size() % 2 ? samples[mid]
                              : 0.5 * (samples[mid - 1] + samples[mid]);
}

std::size_t
benchIters()
{
    return static_cast<std::size_t>(
        std::max(1L, bench::envInt("ADRIAS_BENCH_ITERS", 5)));
}

std::size_t
benchWarmup()
{
    return static_cast<std::size_t>(
        std::max(0L, bench::envInt("ADRIAS_BENCH_WARMUP", 1)));
}

std::vector<unsigned>
probeThreadCounts()
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<unsigned> counts{1, 2, 4, hw};
    std::sort(counts.begin(), counts.end());
    counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
    return counts;
}

/** Multi-seed scenario sweep through the parallel driver. */
std::vector<Measurement>
benchSweep()
{
    const std::size_t seeds = 4;
    auto make_items = [&] {
        std::vector<scenario::SweepItem> items(seeds);
        for (std::size_t i = 0; i < seeds; ++i) {
            items[i].config = bench::evalScenario(9100 + i, 25);
            items[i].config.durationSec = std::min<SimTime>(
                items[i].config.durationSec, 900);
            items[i].policySeed = 9200 + i;
        }
        return items;
    };

    std::vector<Measurement> measurements;
    std::vector<scenario::ScenarioResult> reference;
    for (unsigned threads : probeThreadCounts()) {
        ScopedThreadOverride override_(threads);
        Measurement m;
        m.threads = threads;
        // The sweep runs for seconds per iteration; keep it cheap.
        m.iterations = std::min<std::size_t>(3, benchIters());
        m.warmup = std::min<std::size_t>(1, benchWarmup());
        std::vector<scenario::ScenarioResult> results;
        m.seconds = medianSeconds(
            [&] { results = scenario::runScenarioSweep(make_items()); },
            m.iterations, m.warmup);
        if (threads == 1)
            reference = results;
        m.identical = results.size() == reference.size();
        for (std::size_t i = 0; m.identical && i < results.size(); ++i)
            m.identical = results[i].trace == reference[i].trace &&
                          results[i].records.size() ==
                              reference[i].records.size();
        measurements.push_back(m);
    }
    return measurements;
}

void
appendJson(std::ostream &out, const char *name,
           const std::vector<Measurement> &measurements)
{
    out << "  \"" << name << "\": [\n";
    const double serial = measurements.front().seconds;
    for (std::size_t i = 0; i < measurements.size(); ++i) {
        const auto &m = measurements[i];
        out << "    {\"threads\": " << m.threads
            << ", \"seconds\": " << m.seconds << ", \"speedup\": "
            << (m.seconds > 0.0 ? serial / m.seconds : 0.0)
            << ", \"iterations\": " << m.iterations
            << ", \"warmup\": " << m.warmup
            << ", \"identical\": " << (m.identical ? "true" : "false")
            << "}" << (i + 1 < measurements.size() ? "," : "") << "\n";
    }
    out << "  ]";
}

void
printTable(const char *name, const std::vector<Measurement> &measurements)
{
    TextTable table({"threads", "seconds", "speedup", "identical"});
    const double serial = measurements.front().seconds;
    for (const auto &m : measurements) {
        table.addRow({std::to_string(m.threads),
                      formatDouble(m.seconds, 3),
                      formatDouble(m.seconds > 0.0 ? serial / m.seconds
                                                   : 0.0,
                                   2),
                      m.identical ? "yes" : "NO"});
    }
    std::cout << "\n" << name << ":\n" << table.toString();
}

} // namespace

int
main(int argc, char **argv)
{
    obs::initFromArgs(argc, argv);
    bench::banner("micro — parallel scaling (ThreadPool)",
                  "serial vs ADRIAS_THREADS speedup; results must stay "
                  "bitwise identical at every thread count");

    std::cout << "hardware threads: "
              << std::thread::hardware_concurrency() << "\n";

    const auto sweep = benchSweep();
    printTable("scenario sweep (4 seeds)", sweep);

    const std::string path =
        bench::outputPath("micro_parallel_scaling.json");
    std::ofstream out(path, std::ios::binary);
    out << "{\n  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n";
    appendJson(out, "sweep", sweep);
    out << "\n}\n";
    std::cout << "\nJSON written to " << path << "\n";

    bool all_identical = true;
    for (const auto &m : sweep)
        all_identical = all_identical && m.identical;
    if (!all_identical) {
        std::cout << "ERROR: parallel result diverged from serial\n";
        return 1;
    }

    const std::string obs_report = obs::finishRun();
    if (!obs_report.empty())
        std::cout << "\nObservability summary:\n" << obs_report;
    return 0;
}
