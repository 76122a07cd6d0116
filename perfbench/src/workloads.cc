#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sched.h>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/threadpool.hh"
#include "core/adrias.hh"
#include "core/schedulers.hh"
#include "scenario/engine.hh"
#include "serving/decision_service.hh"
#include "testbed/topology.hh"
#include "wrappers.hh"

namespace perfbench
{

using namespace adrias;

namespace
{

/**
 * Run lengths.  Each workload repeats a unit of work (one training
 * pipeline, one scenario, one serving burst) until the measured phase
 * ends.  Unit i runs input i % inputs, so every phase makes at least
 * one pass over a fixed set of inputs; simulated metrics and R² use
 * that first pass only, so they depend on the seed alone, never on
 * host speed.
 */
struct Scale
{
    std::size_t setupReps = 3;

    // train and serve: the share of the measured phase run on a serial
    // pool for the gated metrics; the rest runs the same inputs at the
    // default thread count (README.md, "Threads").
    double serialShare = 0.75;

    // train: one unit is the whole offline pipeline.
    std::size_t trainScenarios = 4;
    SimTime trainDurationSec = 1800;
    std::size_t trainEpochs = 12;

    // Training rows per model.  The sweep yields more than this on every
    // seed; capping makes a unit's cost independent of how many apps a
    // seed happened to spawn, so wall_s compares across seeds.
    std::size_t trainStateRows = 200;
    std::size_t trainBeRows = 60;
    std::size_t trainLcRows = 12;
    std::size_t trainInputs = 4;
    SimTime trainWarmupSec = 1800;

    // Held-out R² floors, below every value measured over seeds 1-11
    // and 907 (README.md).  At this data size the BE model's R² swings
    // between about 0 and 0.55 with the seed, so its floor only catches
    // a model worse than twice predicting the mean.
    double r2StateFloor = 0.5;
    double r2BeFloor = -1.0;

    // The stack orchestrate and serve set up (AdriasStack options).
    std::size_t stackScenarios = 4;
    SimTime stackDurationSec = 1800;
    std::size_t stackEpochs = 12;

    // orchestrate / rack: one unit is one scenario.  Scenarios are short
    // (20-30 ms), so a phase repeats each input a dozen times or more,
    // spread over the whole phase.  Orchestrate's cost varies by 16%
    // between inputs; over 32 inputs, wall_s moves about 3% with the
    // seed's draw.
    SimTime scenarioDurationSec = 900;
    std::size_t scenarioInputs = 32;
    SimTime rackDurationSec = 900;
    SimTime rackWarmupSec = 4 * 3600;
    std::size_t rackInputs = 48;

    // serve.  A phase runs bursts for burstShare of its seconds, then an
    // open loop of openRequests requests offered at offeredShare of the
    // saturated rate the bursts measured: the service thread is half
    // busy, and a batch's fill time, like its run time, scales with the
    // cost of a decision.  A fixed request count keeps the open loop's
    // logs, and so peak_rss_mb, the same size on a fast or a slow host.
    std::size_t snapshots = 64;
    double burstShare = 0.6;
    double offeredShare = 0.5;
    std::size_t openRequests = 32768;
    std::size_t burstRequests = 256;
    std::size_t burstInputs = 16;
    std::size_t inlineChecks = 256;
};

Scale
scaleFor(const Options &options)
{
    Scale scale;
    if (!options.tiny)
        return scale;
    scale.setupReps = 1;
    scale.trainScenarios = 2;
    scale.trainDurationSec = 600;
    scale.trainEpochs = 2;
    scale.trainInputs = 1;
    scale.r2StateFloor = -std::numeric_limits<double>::infinity();
    scale.r2BeFloor = -std::numeric_limits<double>::infinity();
    scale.trainWarmupSec = 600;
    scale.stackScenarios = 3;
    scale.stackDurationSec = 900;
    scale.stackEpochs = 2;
    scale.scenarioDurationSec = 900;
    scale.scenarioInputs = 1;
    scale.rackDurationSec = 900;
    scale.rackWarmupSec = 300;
    scale.rackInputs = 1;
    scale.snapshots = 4;
    scale.openRequests = 2048;
    scale.burstRequests = 128;
    scale.burstInputs = 1;
    scale.inlineChecks = 32;
    return scale;
}

/**
 * Seed of set-up's warm-up work.  Set-up does the same work whatever
 * --seed is, so setup_s compares across seeds.
 */
constexpr std::uint64_t kWarmupSeed = 1;

/** splitmix64 of (seed, stream, index): independent derived seeds. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull +
                      stream * 0xbf58476d1ce4e5b9ull +
                      index * 0x94d049bb133111ebull + 0x2545f4914f6cdd1dull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    // Scenario seeds stay in a printable range.
    return (z ^ (z >> 31)) % 1000000007ull;
}

double
median(const std::vector<double> &values)
{
    return quantileOr0(values, 0.5);
}

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (double value : values)
        total += value;
    return total;
}

double
share(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

/**
 * Peak resident set of this process image, MB.  VmHWM rather than
 * getrusage: Linux keeps ru_maxrss across execve, so it would report the
 * parent's peak when that is larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** FNV-1a digest of simulated outputs. */
struct Digest : Fnv1a
{
    using Fnv1a::add;

    void
    add(const scenario::DeploymentRecord &record)
    {
        add(static_cast<std::uint64_t>(record.id));
        for (char c : record.name)
            add(static_cast<std::uint64_t>(c));
        add(static_cast<std::uint64_t>(record.cls));
        add(static_cast<std::uint64_t>(record.mode));
        add(static_cast<std::uint64_t>(record.arrival));
        add(static_cast<std::uint64_t>(record.completion));
        add(record.execTimeSec);
        add(record.p99Ms);
        add(record.remoteTrafficGB);
    }
};

/**
 * Moves the calling thread from CPU to CPU among those it may run on,
 * and restores its CPU mask when destroyed.  On a shared host each vCPU
 * slows and recovers on its own, for seconds at a time (README.md,
 * "Noise"); a thread the scheduler leaves on one vCPU measures that
 * vCPU's spells, while visiting every vCPU in turn averages over them.
 * Only the calling thread moves: pool workers keep the mask they were
 * created with.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        if (sched_getaffinity(0, sizeof(original), &original) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &original))
                cpus.push_back(cpu);
    }

    ~CpuRotation()
    {
        if (cpus.size() > 1)
            sched_setaffinity(0, sizeof(original), &original);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /**
     * Move to the next CPU once `dwell` seconds have passed since the
     * last move.  Each move costs the thread its warm private caches,
     * so short units move only every few units.
     */
    void
    advance(double dwell)
    {
        if (cpus.size() < 2 || now() - movedAt < dwell)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[step++ % cpus.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
        movedAt = now();
    }

  private:
    cpu_set_t original;
    std::vector<int> cpus;
    std::size_t step = 0;
    double movedAt = -std::numeric_limits<double>::infinity();
};

/** Least time a measured phase stays on one CPU (CpuRotation). */
constexpr double kCpuDwellSeconds = 0.1;

/**
 * Time `make` `reps` times, each on the next CPU; report the median as
 * setup_s and keep the last result.  Each rep first releases the
 * previous result, so only one is ever alive and peak_rss_mb sees a
 * single set-up.
 */
template <typename Make>
auto
setUp(Report &report, std::size_t reps, Make make)
{
    std::vector<double> times;
    decltype(make()) kept{};
    CpuRotation rotation;
    for (std::size_t r = 0; r < reps; ++r) {
        kept = {};
        rotation.advance(0.0);
        const double start = now();
        kept = make();
        times.push_back(now() - start);
    }
    report.e2e.push_back({"setup_s", median(times), "s"});
    return kept;
}

/**
 * Run unit(0), unit(1), ... until `seconds` have passed and at least
 * `min_units` ran, or exactly `exact` units when it is non-zero (the
 * traced phase replays the untraced phase's inputs).  Between units the
 * thread moves to the next CPU every kCpuDwellSeconds.
 */
template <typename Unit>
std::size_t
runUnits(double seconds, std::size_t min_units, std::size_t exact,
         Unit unit)
{
    CpuRotation rotation;
    const double start = now();
    std::size_t i = 0;
    for (;; ++i) {
        if (exact ? i >= exact
                  : (i >= min_units && now() - start >= seconds))
            break;
        rotation.advance(kCpuDwellSeconds);
        unit(i);
    }
    return i;
}

/**
 * Run `body` as the traced phase: spans on, pool observed.  Fills the
 * attribution table (rows sum to the phase's wall clock by
 * construction: unattributed is the remainder) and the pool metrics.
 */
template <typename Body>
void
tracedPhase(Report &report, std::size_t span_capacity, Body body)
{
    PoolCounter pool;
    Tracer &tracer = Tracer::global();
    double wall = 0.0;
    {
        ScopedPoolCounter attach(pool);
        tracer.enable(span_capacity);
        const double start = now();
        body();
        wall = now() - start;
        tracer.disable();
    }
    report.attributionWall = wall;
    double attributed = 0.0;
    for (const auto &[name, self] : tracer.selfTimes()) {
        report.attribution.emplace_back(name, self);
        attributed += self;
    }
    report.attribution.emplace_back("unattributed", wall - attributed);

    const double chunks = static_cast<double>(pool.chunks());
    report.layers.push_back(
        {"pool.enqueues", static_cast<double>(pool.enqueues()), "count"});
    report.layers.push_back({"pool.chunks", chunks, "count"});
    report.layers.push_back(
        {"pool.items_per_chunk",
         share(static_cast<double>(pool.items()), chunks), "items"});
    report.layers.push_back({"pool.busy_s", pool.busySeconds(), "s"});
    report.layers.push_back({"unattributed_s", wall - attributed, "s"});
    report.layers.push_back(
        {"trace.spans", static_cast<double>(tracer.recorded()), "count"});
    report.layers.push_back(
        {"trace.dropped_spans", static_cast<double>(tracer.dropped()),
         "count"});
}

/**
 * wall_s: the median repeat of each input, then the mean over inputs.
 * Repeats of one input are spread over the whole phase.  A shared host
 * runs the same code up to twice as slowly for seconds at a time; the
 * median averages over those spells alike in every run, whereas the
 * fastest repeat depends on whether a run happened to catch a fast
 * spell.  The mean over inputs uses every input, so it moves less with
 * the seed's draw of inputs than a median would.
 */
double
medianPerInput(const std::vector<double> &walls, std::size_t inputs)
{
    std::vector<std::vector<double>> repeats(std::min(inputs, walls.size()));
    for (std::size_t i = 0; i < walls.size(); ++i)
        repeats[i % inputs].push_back(walls[i]);
    double total = 0.0;
    for (const auto &input : repeats)
        total += median(input);
    return share(total, static_cast<double>(repeats.size()));
}

/** Unit counts and the spread of single units behind wall_s. */
void
reportUnits(Report &report, const std::vector<double> &walls,
            std::size_t inputs, const char *unit)
{
    report.samples.push_back(
        {"wall_s", static_cast<double>(walls.size()), unit});
    report.samples.push_back({"inputs", static_cast<double>(inputs), unit});
    report.samples.push_back({"unit_s_p50", median(walls), "s"});
    report.samples.push_back({"unit_s_p90", quantileOr0(walls, 0.9), "s"});
}

/**
 * Determinism: every repeat of an input reproduced the digest of its
 * first run; when the phase made no repeat, `rerun` runs input 0 again.
 */
template <typename Unit, typename Rerun>
bool
repeatsMatch(const std::vector<Unit> &units, std::size_t inputs,
             Rerun rerun)
{
    for (std::size_t i = inputs; i < units.size(); ++i)
        if (units[i].digest != units[i % inputs].digest)
            return false;
    return units.size() > inputs ||
           rerun().digest == units.front().digest;
}

/** Traced-minus-untraced rows and the wall-clock ratio. */
void
reportOverhead(Report &report, const std::vector<Metric> &untraced,
               const std::vector<Metric> &traced, double untraced_wall,
               double traced_wall)
{
    for (std::size_t i = 0; i < untraced.size() && i < traced.size(); ++i)
        report.overhead.push_back({untraced[i].name,
                                   traced[i].value - untraced[i].value,
                                   untraced[i].unit});
    report.layers.push_back({"trace.overhead_ratio",
                             share(traced_wall, untraced_wall), "ratio"});
}

/** Completed deployments by class, summed over results. */
struct ClassCounts
{
    double be = 0.0;
    double lc = 0.0;
    double ibench = 0.0;

    void
    add(const scenario::DeploymentRecord &record)
    {
        if (record.cls == WorkloadClass::BestEffort)
            ++be;
        else if (record.cls == WorkloadClass::LatencyCritical)
            ++lc;
        else
            ++ibench;
    }

    ClassCounts &
    operator+=(const ClassCounts &other)
    {
        be += other.be;
        lc += other.lc;
        ibench += other.ibench;
        return *this;
    }

    void
    report(Report &out, double units) const
    {
        out.traffic.push_back({"apps_be_per_unit", share(be, units), "apps"});
        out.traffic.push_back({"apps_lc_per_unit", share(lc, units), "apps"});
        out.traffic.push_back(
            {"apps_ibench_per_unit", share(ibench, units), "apps"});
    }
};

double
meanOf(const std::vector<int> &values)
{
    double total = 0.0;
    for (int value : values)
        total += value;
    return share(total, static_cast<double>(values.size()));
}

// ---------------------------------------------------------------------
// train: the offline phase, through the calls AdriasStack makes.

struct TrainUnit
{
    double wall = 0.0;
    double sweep = 0.0;
    double dataset = 0.0;
    double fit = 0.0;
    double r2State = 0.0;
    double r2Be = 0.0;
    double stateRows = 0.0;
    double beRows = 0.0;
    double lcRows = 0.0;
    double fitRows = 0.0;
    double concurrency = 0.0;
    ClassCounts apps;
};

TrainUnit
trainUnit(const Scale &scale, const scenario::SignatureStore &signatures,
          std::uint64_t seed)
{
    const SimTime spawn_maxes[] = {20, 30, 40, 50, 60};
    std::vector<scenario::SweepItem> sweep(scale.trainScenarios);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        sweep[i].config.durationSec = scale.trainDurationSec;
        sweep[i].config.spawnMinSec = 5;
        sweep[i].config.spawnMaxSec =
            spawn_maxes[i % std::size(spawn_maxes)];
        sweep[i].config.seed = deriveSeed(seed, 1, i);
        sweep[i].policySeed = deriveSeed(seed, 2, i);
    }

    TrainUnit unit;
    const double start = now();
    std::vector<scenario::ScenarioResult> results;
    {
        ScopedSpan span("scenario.sweep");
        results = scenario::runScenarioSweep(sweep);
    }
    const double swept = now();

    std::vector<scenario::SystemStateSample> state_train, state_test;
    std::vector<scenario::PerformanceSample> be_train, be_test, lc_train;
    {
        ScopedSpan span("scenario.dataset");
        auto state = scenario::DatasetBuilder::systemState(results);
        auto be = scenario::DatasetBuilder::performance(
            results, signatures, WorkloadClass::BestEffort);
        auto lc = scenario::DatasetBuilder::performance(
            results, signatures, WorkloadClass::LatencyCritical);
        unit.stateRows = static_cast<double>(state.size());
        unit.beRows = static_cast<double>(be.size());
        unit.lcRows = static_cast<double>(lc.size());
        std::tie(state_train, state_test) =
            scenario::splitDataset(std::move(state), 0.6, seed);
        std::tie(be_train, be_test) =
            scenario::splitDataset(std::move(be), 0.6, seed);
        lc_train = scenario::splitDataset(std::move(lc), 0.6, seed).first;
        state_train.resize(std::min(state_train.size(), scale.trainStateRows));
        be_train.resize(std::min(be_train.size(), scale.trainBeRows));
        lc_train.resize(std::min(lc_train.size(), scale.trainLcRows));
    }
    const double built = now();

    models::ModelConfig config;
    config.epochs = scale.trainEpochs;
    models::Predictor predictor(config);
    {
        ScopedSpan span("models.fit");
        predictor.train(state_train, be_train, lc_train);
    }
    const double fitted = now();

    unit.wall = fitted - start;
    unit.sweep = swept - start;
    unit.dataset = built - swept;
    unit.fit = fitted - built;
    unit.fitRows = static_cast<double>(state_train.size() +
                                       be_train.size() + lc_train.size()) *
                   static_cast<double>(config.epochs);
    {
        ScopedSpan span("bench.eval");
        unit.r2State =
            predictor.systemModel().evaluate(state_test).r2Average;
        unit.r2Be = predictor.bestEffortModel()
                        .evaluate(be_test, &predictor.systemModel())
                        .r2;
    }
    double concurrency = 0.0;
    for (const auto &result : results) {
        concurrency += meanOf(result.concurrency);
        for (const auto &record : result.records)
            unit.apps.add(record);
    }
    unit.concurrency = share(concurrency, static_cast<double>(results.size()));
    return unit;
}

Report
runTrain(const Options &options, const Scale &scale)
{
    Report report;
    // Set-up and the gated phase run on a serial pool.
    std::optional<ScopedThreadOverride> serial;
    serial.emplace(1u);
    // Set-up: design-time signatures, then one small pipeline pass so
    // allocations are warm before timing.
    double signatures_s = 0.0;
    auto signatures = setUp(report, scale.setupReps, [&] {
        auto store = std::make_unique<scenario::SignatureStore>();
        const double start = now();
        scenario::collectAllSignatures(*store, {},
                                       deriveSeed(options.seed, 0, 0));
        signatures_s = now() - start;
        Scale warmup = scale;
        warmup.trainScenarios = 2;
        warmup.trainDurationSec = scale.trainWarmupSec;
        warmup.trainEpochs = 3;
        trainUnit(warmup, *store, kWarmupSeed);
        return store;
    });

    std::vector<TrainUnit> units;
    const double seconds =
        options.trace ? options.seconds / 2.0 : options.seconds;
    const auto phase = [&](double phase_seconds, std::size_t exact) {
        units.clear();
        return runUnits(phase_seconds, scale.trainInputs, exact,
                        [&](std::size_t i) {
                            units.push_back(trainUnit(
                                scale, *signatures,
                                deriveSeed(options.seed, 10,
                                           i % scale.trainInputs)));
                        });
    };
    const auto metrics = [&]() {
        std::vector<double> walls, r2_state, r2_be;
        for (std::size_t i = 0; i < units.size(); ++i) {
            walls.push_back(units[i].wall);
            if (i < scale.trainInputs) {
                r2_state.push_back(units[i].r2State);
                r2_be.push_back(units[i].r2Be);
            }
        }
        return std::vector<Metric>{
            {"wall_s", medianPerInput(walls, scale.trainInputs), "s"},
            {"r2_state", median(r2_state), "R2"},
            {"r2_be", median(r2_be), "R2"},
        };
    };

    phase(scale.serialShare * seconds, 0);
    const std::vector<Metric> gated = metrics();
    for (const Metric &metric : gated)
        report.e2e.push_back(metric);
    report.e2e.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    std::vector<double> unit_walls;
    for (const auto &unit : units)
        unit_walls.push_back(unit.wall);
    reportUnits(report, unit_walls, scale.trainInputs, "units");
    report.attempted = units.size();

    const double r2_state = gated[1].value;
    const double r2_be = gated[2].value;
    report.check("r2_state_above_floor",
                 std::isfinite(r2_state) && r2_state >= scale.r2StateFloor);
    report.check("r2_be_above_floor",
                 std::isfinite(r2_be) && r2_be >= scale.r2BeFloor);

    ClassCounts apps;
    double concurrency = 0.0, rows = 0.0;
    for (const auto &unit : units) {
        apps += unit.apps;
        concurrency += unit.concurrency;
        rows += unit.stateRows + unit.beRows + unit.lcRows;
    }
    const double n = static_cast<double>(units.size());
    apps.report(report, n);
    report.traffic.push_back(
        {"mean_concurrency", share(concurrency, n), "apps"});
    report.traffic.push_back({"dataset_rows_per_unit", share(rows, n),
                              "rows"});
    report.traffic.push_back(
        {"sim_s_per_unit",
         static_cast<double>(scale.trainScenarios * scale.trainDurationSec),
         "sim-s"});
    // Training reads rows straight from the datasets; no predictor
    // query (and so no repeated history window) is issued.
    report.traffic.push_back({"repeat_history_share", 0.0, "ratio"});

    // The same inputs at the default thread count.  The pool partitions
    // work by range length alone, so the models are bitwise the same.
    serial.reset();
    const std::size_t count = phase((1.0 - scale.serialShare) * seconds, 0);
    const std::vector<Metric> untraced = metrics();
    double untraced_wall = 0.0;
    for (const auto &unit : units)
        untraced_wall += unit.wall;
    report.threaded = untraced;
    report.threads = ThreadPool::global().threadCount();
    report.check("models_same_at_default_threads",
                 untraced[1].value == r2_state && untraced[2].value == r2_be);

    if (!options.trace)
        return report;

    tracedPhase(report, 1 << 16, [&] { phase(0.0, count); });
    double traced_wall = 0.0, sweep = 0.0, dataset = 0.0, fit = 0.0,
           fit_rows = 0.0, state_rows = 0.0, be_rows = 0.0, lc_rows = 0.0;
    for (const auto &unit : units) {
        traced_wall += unit.wall;
        sweep += unit.sweep;
        dataset += unit.dataset;
        fit += unit.fit;
        fit_rows += unit.fitRows;
        state_rows += unit.stateRows;
        be_rows += unit.beRows;
        lc_rows += unit.lcRows;
    }
    reportOverhead(report, untraced, metrics(), untraced_wall, traced_wall);
    report.layers.push_back({"scenario.signatures_s", signatures_s, "s"});
    report.layers.push_back({"scenario.sweep_s", sweep, "s"});
    report.layers.push_back({"scenario.dataset_s", dataset, "s"});
    report.layers.push_back({"scenario.state_samples", state_rows, "count"});
    report.layers.push_back({"scenario.be_samples", be_rows, "count"});
    report.layers.push_back({"scenario.lc_samples", lc_rows, "count"});
    report.layers.push_back({"models.fit_s", fit, "s"});
    report.layers.push_back(
        {"models.fit_rows_per_s", share(fit_rows, fit), "1/s"});
    return report;
}

// ---------------------------------------------------------------------
// The trained stack orchestrate and serve share.

// The stack is part of the system under test, not of a workload's
// inputs: it is trained from AdriasStack's own default seed whatever
// --seed is, so every seed meets the same models.  (Models trained on
// different seeds range from 0% to 65% offload at beta 0.8, which would
// make every other metric a function of the model draw.)
std::unique_ptr<core::AdriasStack>
buildStack(const Scale &scale)
{
    core::AdriasStack::BuildOptions build;
    build.scenarios = scale.stackScenarios;
    build.scenarioDurationSec = scale.stackDurationSec;
    build.model.epochs = scale.stackEpochs;
    return std::make_unique<core::AdriasStack>(build);
}

// ---------------------------------------------------------------------
// orchestrate: paper-pair scenarios placed by AdriasOrchestrator.

struct OrchestrateUnit
{
    double wall = 0.0;
    double placeSeconds = 0.0;
    std::vector<double> latencyUs;
    std::vector<double> beExec;
    std::uint64_t decisions = 0;
    std::uint64_t remote = 0;
    std::uint64_t modelDecisions = 0;
    std::uint64_t ruleDecisions = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t bootstraps = 0;
    double appsPerTick = 0.0;
    double concurrency = 0.0;
    ClassCounts apps;
    std::uint64_t digest = 0;
};

OrchestrateUnit
orchestrateUnit(const Scale &scale, core::AdriasStack &stack,
                TimedPredictor &predictor, std::uint64_t seed)
{
    scenario::ScenarioConfig config;
    config.durationSec = scale.scenarioDurationSec;
    config.spawnMinSec = 5;
    config.spawnMaxSec = 25;
    config.seed = seed;
    config.lcFraction = 0.15;
    config.ibenchFraction = 0.35;
    config.maxConcurrent = 35;

    // Each scenario starts from the stack's signatures: bootstrap
    // captures in one unit must not leak into the next.
    scenario::SignatureStore signatures = stack.signatures();
    core::AdriasConfig policy_config;
    policy_config.beta = 0.8;
    core::AdriasOrchestrator orchestrator(predictor, signatures,
                                          policy_config);
    TimedPlacement policy(orchestrator, predictor);

    OrchestrateUnit unit;
    const double start = now();
    scenario::ScenarioEngine engine(config);
    double running = 0.0;
    while (!engine.finished()) {
        ScopedSpan span("scenario.step");
        engine.stepTick(policy);
        running += static_cast<double>(engine.runningCount());
    }
    const scenario::ScenarioResult result = engine.finish();
    unit.wall = now() - start;

    const core::OrchestratorStats stats = orchestrator.stats();
    unit.placeSeconds = policy.placeSeconds;
    unit.latencyUs = std::move(policy.latencyUs);
    unit.decisions = policy.modelDecisions + policy.ruleDecisions;
    unit.remote = policy.remoteDecisions;
    unit.modelDecisions = policy.modelDecisions;
    unit.ruleDecisions = policy.ruleDecisions;
    unit.fallbacks = stats.fallbackPlacements + stats.predictionFailures;
    unit.bootstraps = stats.bootstrapPlacements;
    unit.appsPerTick =
        running / static_cast<double>(scale.scenarioDurationSec);
    unit.concurrency = meanOf(result.concurrency);

    Digest digest;
    for (const auto &record : result.records) {
        digest.add(record);
        unit.apps.add(record);
        if (record.cls == WorkloadClass::BestEffort)
            unit.beExec.push_back(record.execTimeSec);
    }
    digest.add(result.totalRemoteTrafficGB);
    for (int c : result.concurrency)
        digest.add(static_cast<std::uint64_t>(c));
    unit.digest = digest.hash;
    return unit;
}

Report
runOrchestrate(const Options &options, const Scale &scale)
{
    Report report;
    // The stack trains on a serial pool; the measured phase issues no
    // pool work.
    auto stack = setUp(report, scale.setupReps, [&] {
        ScopedThreadOverride serial(1);
        return buildStack(scale);
    });
    TimedPredictor predictor(stack->predictor());

    std::vector<OrchestrateUnit> units;
    const auto phase = [&](std::size_t exact) {
        units.clear();
        predictor.reset();
        const double seconds = options.trace ? options.seconds / 2.0
                                             : options.seconds;
        return runUnits(seconds, scale.scenarioInputs, exact,
                        [&](std::size_t i) {
                            units.push_back(orchestrateUnit(
                                scale, *stack, predictor,
                                deriveSeed(options.seed, 20,
                                           i % scale.scenarioInputs)));
                        });
    };
    const auto metrics = [&]() {
        std::vector<double> walls, latency, be_exec;
        double decisions = 0.0, remote = 0.0, fallbacks = 0.0;
        for (std::size_t i = 0; i < units.size(); ++i) {
            const OrchestrateUnit &unit = units[i];
            walls.push_back(unit.wall);
            latency.insert(latency.end(), unit.latencyUs.begin(),
                           unit.latencyUs.end());
            if (i >= scale.scenarioInputs)
                continue;
            be_exec.insert(be_exec.end(), unit.beExec.begin(),
                           unit.beExec.end());
            decisions += static_cast<double>(unit.decisions);
            remote += static_cast<double>(unit.remote);
            fallbacks += static_cast<double>(unit.fallbacks);
        }
        const double wall = medianPerInput(walls, scale.scenarioInputs);
        std::vector<Metric> out{
            {"wall_s", wall, "s"},
            {"sim_s_per_host_s",
             share(static_cast<double>(scale.scenarioDurationSec), wall),
             "sim-s/s"},
            {"decision_p50_us", quantileOr0(latency, 0.5), "us"},
        };
        if (latency.size() >= 1000)
            out.push_back(
                {"decision_p99_us", quantileOr0(latency, 0.99), "us"});
        out.push_back({"be_exec_p50_s", quantileOr0(be_exec, 0.5), "sim-s"});
        out.push_back(
            {"be_exec_p95_s", quantileOr0(be_exec, 0.95), "sim-s"});
        out.push_back(
            {"offload_pct", 100.0 * share(remote, decisions), "%"});
        out.push_back(
            {"failed_pct", 100.0 * share(fallbacks, decisions), "%"});
        return std::make_pair(out, latency.size());
    };

    const std::size_t count = phase(0);
    const auto [untraced, latency_samples] = metrics();
    double untraced_wall = 0.0, decisions = 0.0, failed = 0.0;
    for (const auto &unit : units) {
        untraced_wall += unit.wall;
        decisions += static_cast<double>(unit.decisions);
        failed += static_cast<double>(unit.fallbacks);
    }
    for (const Metric &metric : untraced)
        report.e2e.push_back(metric);
    report.e2e.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    std::vector<double> unit_walls;
    for (const auto &unit : units)
        unit_walls.push_back(unit.wall);
    reportUnits(report, unit_walls, scale.scenarioInputs, "units");
    report.samples.push_back({"decision_p50_us",
                              static_cast<double>(latency_samples),
                              "decisions"});
    report.samples.push_back(
        {"be_exec_p50_s",
         static_cast<double>(std::min(units.size(), scale.scenarioInputs)),
         "scenarios"});
    report.attempted = static_cast<std::uint64_t>(decisions);
    report.failed = static_cast<std::uint64_t>(failed);

    ClassCounts apps;
    double concurrency = 0.0;
    for (const auto &unit : units) {
        apps += unit.apps;
        concurrency += unit.concurrency;
    }
    const double n = static_cast<double>(units.size());
    apps.report(report, n);
    report.traffic.push_back(
        {"mean_concurrency", share(concurrency, n), "apps"});
    report.traffic.push_back(
        {"offered_arrivals_per_sim_h", 3600.0 / 15.0, "1/sim-h"});
    report.traffic.push_back(
        {"achieved_decisions_per_sim_h",
         share(decisions * 3600.0,
               n * static_cast<double>(scale.scenarioDurationSec)),
         "1/sim-h"});
    report.traffic.push_back(
        {"repeat_history_share",
         share(static_cast<double>(predictor.repeatedRows),
               static_cast<double>(predictor.rows)),
         "ratio"});

    report.check("sim_outputs_repeat_for_seed",
                 repeatsMatch(units, scale.scenarioInputs, [&] {
                     return orchestrateUnit(scale, *stack, predictor,
                                            deriveSeed(options.seed, 20, 0));
                 }));

    if (!options.trace)
        return report;

    tracedPhase(report, 1 << 22, [&] { phase(count); });
    double traced_wall = 0.0, place = 0.0, apps_per_tick = 0.0;
    std::uint64_t model = 0, rule = 0, fallbacks = 0, bootstraps = 0;
    for (const auto &unit : units) {
        traced_wall += unit.wall;
        place += unit.placeSeconds;
        apps_per_tick += unit.appsPerTick;
        model += unit.modelDecisions;
        rule += unit.ruleDecisions;
        fallbacks += unit.fallbacks;
        bootstraps += unit.bootstraps;
    }
    reportOverhead(report, untraced, metrics().first, untraced_wall,
                   traced_wall);
    report.layers.push_back({"scenario.step_self_s", traced_wall - place,
                             "s"});
    report.layers.push_back({"scenario.apps_per_tick",
                             share(apps_per_tick, n), "apps"});
    report.layers.push_back({"models.predict_calls",
                             static_cast<double>(predictor.predictCalls),
                             "count"});
    report.layers.push_back({"models.predict_s", predictor.predictSeconds,
                             "s"});
    report.layers.push_back({"models.predict_us_p50",
                             quantileOr0(predictor.predictUs, 0.5), "us"});
    report.layers.push_back(
        {"models.repeat_history_share",
         share(static_cast<double>(predictor.repeatedRows),
               static_cast<double>(predictor.rows)),
         "ratio"});
    report.layers.push_back({"core.place_self_s",
                             place - predictor.predictSeconds, "s"});
    report.layers.push_back(
        {"core.decisions_model", static_cast<double>(model), "count"});
    report.layers.push_back(
        {"core.decisions_rule", static_cast<double>(rule), "count"});
    report.layers.push_back({"core.decisions_bootstrap",
                             static_cast<double>(bootstraps), "count"});
    report.layers.push_back({"core.decisions_fallback",
                             static_cast<double>(fallbacks), "count"});
    return report;
}

// ---------------------------------------------------------------------
// serve: DecisionService under an open-loop generator, then saturated.

constexpr std::size_t kShards = 4;

/** Decision deadline and epoch length, in 1 ms serving ticks. */
constexpr SimTime kDeadlineTicks = 25;
constexpr SimTime kEpochTicks = 100;

/** Most open-loop submissions between two pumps: 64 per shard. */
constexpr std::size_t kIngestChunk = 256;

/** Per-shard queue capacity of the open loop's service. */
constexpr std::size_t kOpenQueueCapacity = 1024;

struct ServeSetup
{
    std::unique_ptr<core::AdriasStack> stack;

    /** Known applications: every request can take the model path. */
    std::vector<const workloads::WorkloadSpec *> apps;

    /** Epoch snapshots drawn from the stack's recorded traces. */
    std::vector<serving::EpochSnapshot> snapshots;
};

std::unique_ptr<ServeSetup>
buildServe(const Scale &scale, std::uint64_t seed)
{
    auto setup = std::make_unique<ServeSetup>();
    setup->stack = buildStack(scale);
    const scenario::SignatureStore &signatures = setup->stack->signatures();
    for (const auto &spec : workloads::sparkBenchmarks())
        if (signatures.has(spec.name))
            setup->apps.push_back(&spec);
    for (const auto *lc :
         {&workloads::redisSpec(), &workloads::memcachedSpec()})
        if (signatures.has(lc->name))
            setup->apps.push_back(lc);
    if (setup->apps.empty())
        throw std::runtime_error("serve: no signatures for any app");

    const auto &traces = setup->stack->traces();
    Rng rng(deriveSeed(seed, 30, 0));
    for (std::size_t e = 0; e < scale.snapshots; ++e) {
        serving::EpochSnapshot snapshot;
        for (std::size_t s = 0; s < kShards; ++s) {
            const auto &trace = traces[(e + s) % traces.size()].trace;
            const auto at = rng.uniformInt(
                static_cast<std::int64_t>(
                    scenario::ScenarioRunner::kWindowSec),
                static_cast<std::int64_t>(trace.size()) - 1);
            snapshot.shardWindows.push_back(
                scenario::historyWindowAt(trace, at));
        }
        setup->snapshots.push_back(std::move(snapshot));
    }
    return setup;
}

/** Requests and decisions of one DecisionService, kept for checks. */
struct ServeLog
{
    std::vector<serving::PlacementRequest> requests; ///< index == id
    std::vector<bool> accepted;
    std::vector<std::uint32_t> decidedTimes;
    std::vector<serving::PlacementDecision> decisions;
    std::vector<std::size_t> epochSnapshot{0}; ///< epoch -> snapshot

    /** Empty the log, keeping room for `count` requests. */
    void
    reset(std::size_t count)
    {
        requests.clear();
        accepted.clear();
        decidedTimes.clear();
        decisions.clear();
        epochSnapshot.assign(1, 0);
        requests.reserve(count);
        accepted.reserve(count);
        decidedTimes.reserve(count);
        decisions.reserve(count);
    }

    serving::PlacementRequest &
    add(const workloads::WorkloadSpec &spec, SimTime tick)
    {
        serving::PlacementRequest request;
        request.id = static_cast<DeploymentId>(requests.size());
        request.app = spec.name;
        request.cls = spec.cls;
        request.shard = requests.size() % kShards;
        request.submitted = tick;
        request.deadline = tick + kDeadlineTicks;
        requests.push_back(std::move(request));
        accepted.push_back(false);
        decidedTimes.push_back(0);
        return requests.back();
    }

    void
    record(const std::vector<serving::PlacementDecision> &batch)
    {
        for (const auto &decision : batch) {
            if (decision.id < decidedTimes.size())
                ++decidedTimes[decision.id];
            decisions.push_back(decision);
        }
    }

    /** Accepted requests not decided exactly once. */
    std::uint64_t
    lost() const
    {
        std::uint64_t count = 0;
        for (std::size_t id = 0; id < requests.size(); ++id)
            count += accepted[id] && decidedTimes[id] != 1;
        return count;
    }

    /** Every accepted request decided once; nothing else decided. */
    bool
    decidedExactlyOnce() const
    {
        for (std::size_t id = 0; id < requests.size(); ++id)
            if (decidedTimes[id] != (accepted[id] ? 1u : 0u))
                return false;
        for (const auto &decision : decisions)
            if (decision.id >= requests.size())
                return false;
        return true;
    }
};

serving::DecisionServiceConfig
serviceConfig(std::size_t capacity)
{
    serving::DecisionServiceConfig config;
    config.shards = kShards;
    config.queueCapacity = capacity;
    config.batchSize = 32;
    return config;
}

/**
 * Open-loop logs.  They are sized once, before a phase's first burst,
 * and reused by every later phase, so where they land in the heap, and
 * so peak_rss_mb, does not depend on how many bursts ran before them.
 */
struct OpenLoop
{
    std::vector<double> dueAt;       ///< by request id
    std::vector<double> submittedAt; ///< by request id
    std::vector<double> latencyUs;   ///< decided minus due
    std::vector<double> waitUs;      ///< decided minus submitted
    std::vector<double> lateUs;      ///< submitted minus due
    double seconds = 0.0;            ///< start to the last decision
    double submitSeconds = 0.0;
    double serviceSeconds = 0.0;
    std::uint64_t offered = 0;
    serving::DecisionServiceStats stats;
    ServeLog log;

    /** Empty every log, keeping room for `requests` requests. */
    void
    reset(std::size_t requests)
    {
        for (auto *samples :
             {&dueAt, &submittedAt, &latencyUs, &waitUs, &lateUs}) {
            samples->clear();
            samples->reserve(requests);
        }
        log.reset(requests);
        seconds = submitSeconds = serviceSeconds = 0.0;
        offered = 0;
        stats = {};
    }
};

/**
 * Open loop: `requests` requests fall due every 1/rate seconds
 * regardless of how the service keeps up; latency counts from the due
 * time, so a stall also charges the requests that fell due during it.
 * `out` must be freshly reset.
 */
void
openLoop(const ServeSetup &setup, TimedPredictor &predictor, double rate,
         std::size_t requests, std::uint64_t seed, OpenLoop &out)
{
    serving::DecisionService service(predictor, setup.stack->signatures(),
                                     core::AdriasConfig{},
                                     serviceConfig(kOpenQueueCapacity));
    Rng rng(seed);
    const double period = 1.0 / rate;
    const double start = now();
    SimTime next_epoch = 0;
    std::size_t epoch_count = 0;
    std::size_t next = 0;
    SimTime tick = 0;

    const auto collect = [&](const std::vector<serving::PlacementDecision>
                                 &batch,
                             double at) {
        for (const auto &decision : batch) {
            out.latencyUs.push_back((at - out.dueAt[decision.id]) * 1e6);
            out.waitUs.push_back((at - out.submittedAt[decision.id]) * 1e6);
        }
        out.log.record(batch);
    };

    while (next < requests) {
        const double elapsed = now() - start;
        tick = static_cast<SimTime>(elapsed * 1000.0);
        if (tick >= next_epoch) {
            ScopedSpan span("serving.epoch");
            const std::size_t index = epoch_count++ % setup.snapshots.size();
            service.beginEpoch(setup.snapshots[index]);
            out.log.epochSnapshot.push_back(index);
            next_epoch += kEpochTicks;
        }
        // Every pump empties the shard queues, so capping what one pass
        // submits keeps them far from full: however far a stall puts
        // the loop behind, it meets no back-pressure.
        for (std::size_t submitted = 0;
             submitted < kIngestChunk &&
             static_cast<double>(next) * period <= elapsed;
             ++submitted) {
            const double due = static_cast<double>(next) * period;
            const auto &spec = *setup.apps[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      setup.apps.size()) - 1))];
            serving::PlacementRequest &request = out.log.add(
                spec, static_cast<SimTime>(due * 1000.0));
            const double submit_start = now();
            bool ok = false;
            {
                ScopedSpan span("serving.submit");
                ok = service.submit(request);
            }
            const double submit_end = now();
            out.submitSeconds += submit_end - submit_start;
            out.log.accepted.back() = ok;
            out.dueAt.push_back(start + due);
            out.submittedAt.push_back(submit_start);
            out.lateUs.push_back((submit_start - (start + due)) * 1e6);
            ++next;
        }
        const double pump_start = now();
        std::vector<serving::PlacementDecision> batch;
        {
            ScopedSpan span("serving.pump");
            batch = service.pump(tick);
        }
        const double pump_end = now();
        out.serviceSeconds += pump_end - pump_start;
        collect(batch, pump_end);
        if (batch.empty()) {
            ScopedSpan span("gen.idle");
            const double wake =
                std::min(start + static_cast<double>(next) * period,
                         start + static_cast<double>(tick + 1) / 1000.0);
            const double nap = wake - now();
            if (nap > 0.0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(nap));
        }
    }
    const double drain_start = now();
    std::vector<serving::PlacementDecision> rest;
    {
        ScopedSpan span("serving.pump");
        rest = service.drain(tick);
    }
    const double drain_end = now();
    out.serviceSeconds += drain_end - drain_start;
    collect(rest, drain_end);
    out.seconds = drain_end - start;
    out.offered = next;
    out.stats = service.stats();
}

/**
 * Burst results.  Logs are checked burst by burst and only the first
 * is kept (for the inline-rule check), so memory does not grow with the
 * number of bursts a fast host gets through.
 */
struct Bursts
{
    std::vector<double> walls;
    double serviceSeconds = 0.0;
    serving::DecisionServiceStats stats;
    ServeLog first;
    bool decidedOnce = true;
    std::uint64_t requests = 0;
    std::uint64_t lost = 0;
    double be = 0.0;
    double lc = 0.0;
};

/**
 * Closed loop: one client submits a burst of requests and waits until
 * the service has decided all of them; the saturated decision rate.
 */
void
bursts(const ServeSetup &setup, TimedPredictor &predictor,
       const Scale &scale, double seconds, std::size_t exact,
       std::uint64_t seed, Bursts &out)
{
    serving::DecisionService service(predictor, setup.stack->signatures(),
                                     core::AdriasConfig{},
                                     serviceConfig(scale.burstRequests));
    runUnits(seconds, scale.burstInputs, exact, [&](std::size_t b) {
        Rng rng(deriveSeed(seed, 0, b % scale.burstInputs));
        const auto tick = static_cast<SimTime>(b);
        const std::size_t index =
            b % scale.burstInputs % setup.snapshots.size();
        service.beginEpoch(setup.snapshots[index]);
        ServeLog log;
        log.epochSnapshot.push_back(index);
        for (std::size_t i = 0; i < scale.burstRequests; ++i)
            log.add(*setup.apps[static_cast<std::size_t>(rng.uniformInt(
                        0,
                        static_cast<std::int64_t>(setup.apps.size()) - 1))],
                    tick);
        const double start = now();
        for (std::size_t id = 0; id < log.requests.size(); ++id) {
            ScopedSpan span("serving.submit");
            log.accepted[id] = service.submit(log.requests[id]);
        }
        const double submitted = now();
        std::vector<serving::PlacementDecision> batch;
        {
            ScopedSpan span("serving.pump");
            batch = service.drain(tick);
        }
        const double stop = now();
        out.serviceSeconds += stop - submitted;
        out.walls.push_back(stop - start);
        log.record(batch);
        out.decidedOnce = out.decidedOnce && log.decidedExactlyOnce();
        out.lost += log.lost();
        out.requests += log.requests.size();
        for (const auto &request : log.requests)
            (request.cls == WorkloadClass::BestEffort ? out.be : out.lc) +=
                1.0;
        if (b == 0)
            out.first = std::move(log);
    });
    out.stats = service.stats();
}

/**
 * Recompute up to `limit` model-path decisions with the inline rule:
 * decideBestEffort / decideLatencyCritical over single-row
 * predictPerformance on the same window and signature.
 */
std::size_t
inlineMismatches(const ServeSetup &setup, const ServeLog &log,
                 std::size_t limit, std::size_t &checked)
{
    const models::PredictorBase &predictor = setup.stack->predictor();
    const scenario::SignatureStore &signatures = setup.stack->signatures();
    const core::AdriasConfig policy;
    std::size_t mismatches = 0;
    for (const auto &decision : log.decisions) {
        if (checked >= limit)
            break;
        if (decision.path != serving::DecisionPath::Model)
            continue;
        const serving::PlacementRequest &request = log.requests[decision.id];
        const auto &window =
            setup.snapshots[log.epochSnapshot[decision.epoch]]
                .shardWindows[request.shard];
        const auto &signature = signatures.get(request.app);
        MemoryMode expected;
        if (request.cls == WorkloadClass::BestEffort) {
            expected = core::AdriasOrchestrator::decideBestEffort(
                predictor.predictPerformance(request.cls, window, signature,
                                             MemoryMode::Local),
                predictor.predictPerformance(request.cls, window, signature,
                                             MemoryMode::Remote),
                policy.beta);
        } else {
            expected = core::AdriasOrchestrator::decideLatencyCritical(
                predictor.predictPerformance(request.cls, window, signature,
                                             MemoryMode::Remote),
                policy.defaultQosP99Ms);
        }
        mismatches += expected != decision.mode;
        ++checked;
    }
    return mismatches;
}

Report
runServe(const Options &options, const Scale &scale)
{
    Report report;
    // Set-up and the gated phase run on a serial pool.
    std::optional<ScopedThreadOverride> serial;
    serial.emplace(1u);
    auto setup = setUp(report, scale.setupReps,
                       [&] { return buildServe(scale, options.seed); });
    TimedPredictor predictor(setup->stack->predictor());

    // Each phase: saturated bursts, then an open loop at a share of the
    // rate the bursts reached.  The traced replay offers the untraced
    // phase's rate, so both phases see the same traffic.
    OpenLoop open;
    Bursts burst;
    double offered_per_s = 0.0;
    const double seconds =
        options.trace ? options.seconds / 2.0 : options.seconds;
    const auto phase = [&](double phase_seconds, std::size_t exact) {
        predictor.reset();
        open.reset(scale.openRequests);
        burst = Bursts{};
        bursts(*setup, predictor, scale, scale.burstShare * phase_seconds,
               exact, deriveSeed(options.seed, 41, 0), burst);
        if (!exact)
            offered_per_s =
                scale.offeredShare *
                share(static_cast<double>(scale.burstRequests),
                      medianPerInput(burst.walls, scale.burstInputs));
        openLoop(*setup, predictor, offered_per_s, scale.openRequests,
                 deriveSeed(options.seed, 40, 0), open);
        return burst.walls.size();
    };
    const auto metrics = [&]() {
        const double burst_wall =
            medianPerInput(burst.walls, scale.burstInputs);
        const double decided =
            static_cast<double>(open.stats.decisions + burst.stats.decisions);
        const double offered = static_cast<double>(
            open.offered + burst.requests);
        const double failures = static_cast<double>(
            open.stats.rejectedBackpressure + open.stats.missedDeadlines +
            open.stats.fallbackDecisions +
            burst.stats.rejectedBackpressure +
            burst.stats.fallbackDecisions);
        std::vector<Metric> out{
            {"wall_s", burst_wall, "s"},
            {"decisions_per_s",
             share(static_cast<double>(scale.burstRequests), burst_wall),
             "1/s"},
            {"decision_p50_us", quantileOr0(open.latencyUs, 0.5), "us"},
        };
        if (open.latencyUs.size() >= 1000)
            out.push_back({"decision_p99_us",
                           quantileOr0(open.latencyUs, 0.99), "us"});
        out.push_back(
            {"offload_pct",
             100.0 * share(static_cast<double>(
                               open.stats.remoteDecisions +
                               burst.stats.remoteDecisions),
                           decided),
             "%"});
        out.push_back({"failed_pct", 100.0 * share(failures, offered), "%"});
        return out;
    };
    // Checks and operation counts of the phase that just ran; returns
    // how many decisions the inline rule recomputed.
    const auto checkPhase = [&](const std::string &suffix) {
        const bool once =
            open.log.decidedExactlyOnce() && burst.decidedOnce;
        std::size_t checked = 0;
        const std::size_t mismatches =
            inlineMismatches(*setup, open.log, scale.inlineChecks,
                             checked) +
            inlineMismatches(*setup, burst.first,
                             checked + scale.burstRequests, checked);
        report.check("every_accepted_request_decided_once" + suffix, once);
        report.check("model_decisions_match_inline_rule" + suffix,
                     mismatches == 0 && checked > 0);
        report.attempted += open.offered + burst.requests;
        report.failed += open.stats.rejectedBackpressure +
                         open.stats.fallbackDecisions +
                         burst.stats.rejectedBackpressure +
                         burst.stats.fallbackDecisions + open.log.lost() +
                         burst.lost;
        return checked;
    };

    phase(scale.serialShare * seconds, 0);
    const std::vector<Metric> gated = metrics();
    for (const Metric &metric : gated)
        report.e2e.push_back(metric);
    report.e2e.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    reportUnits(report, burst.walls, scale.burstInputs, "bursts");
    report.samples.push_back({"decision_p50_us",
                              static_cast<double>(open.latencyUs.size()),
                              "decisions"});
    report.samples.push_back({"inline_rule_checked",
                              static_cast<double>(checkPhase("")),
                              "decisions"});

    double be = burst.be, lc = burst.lc;
    for (const auto &request : open.log.requests)
        (request.cls == WorkloadClass::BestEffort ? be : lc) += 1.0;
    report.traffic.push_back({"requests_be", be, "requests"});
    report.traffic.push_back({"requests_lc", lc, "requests"});
    report.traffic.push_back({"offered_per_s", offered_per_s, "1/s"});
    report.traffic.push_back(
        {"achieved_per_s",
         share(static_cast<double>(open.stats.decisions), open.seconds),
         "1/s"});
    report.traffic.push_back(
        {"burst_requests", static_cast<double>(scale.burstRequests),
         "requests"});
    report.traffic.push_back(
        {"repeat_history_share",
         share(static_cast<double>(predictor.repeatedRows),
               static_cast<double>(predictor.rows)),
         "ratio"});

    // The same traffic at the default thread count.
    serial.reset();
    const double threaded_seconds = (1.0 - scale.serialShare) * seconds;
    const std::size_t count = phase(threaded_seconds, 0);
    const std::vector<Metric> untraced = metrics();
    const double untraced_wall = sum(burst.walls);
    report.threaded = untraced;
    report.threads = ThreadPool::global().threadCount();
    checkPhase("_at_default_threads");

    if (!options.trace)
        return report;

    tracedPhase(report, 1 << 21,
                [&] { phase(threaded_seconds, count); });
    reportOverhead(report, untraced, metrics(), untraced_wall,
                   sum(burst.walls));
    const serving::DecisionServiceStats &a = open.stats;
    const serving::DecisionServiceStats &b = burst.stats;
    const double batches = static_cast<double>(a.batches + b.batches);
    report.layers.push_back({"models.batch_calls",
                             static_cast<double>(predictor.batchCalls),
                             "count"});
    report.layers.push_back({"models.batch_rows",
                             static_cast<double>(predictor.batchRows),
                             "count"});
    report.layers.push_back(
        {"models.batch_row_us",
         1e6 * share(predictor.batchSeconds,
                     static_cast<double>(predictor.batchRows)),
         "us"});
    report.layers.push_back(
        {"models.repeat_history_share",
         share(static_cast<double>(predictor.repeatedRows),
               static_cast<double>(predictor.rows)),
         "ratio"});
    report.layers.push_back(
        {"serving.submit_us",
         1e6 * share(open.submitSeconds, static_cast<double>(open.offered)),
         "us"});
    report.layers.push_back(
        {"serving.pump_self_s",
         open.serviceSeconds + burst.serviceSeconds - predictor.batchSeconds,
         "s"});
    report.layers.push_back(
        {"serving.rows_per_batch",
         share(static_cast<double>(a.decisions + b.decisions), batches),
         "requests"});
    report.layers.push_back(
        {"serving.padded_share",
         share(static_cast<double>(a.paddedRows + b.paddedRows),
               static_cast<double>(predictor.batchRows)),
         "ratio"});
    report.layers.push_back(
        {"serving.full_flushes",
         static_cast<double>(a.fullBatchFlushes + b.fullBatchFlushes),
         "count"});
    report.layers.push_back(
        {"serving.deadline_flushes",
         static_cast<double>(a.deadlineFlushes + b.deadlineFlushes),
         "count"});
    report.layers.push_back(
        {"serving.rejects",
         static_cast<double>(a.rejectedBackpressure +
                             b.rejectedBackpressure),
         "count"});
    report.layers.push_back(
        {"serving.missed_deadlines",
         static_cast<double>(a.missedDeadlines + b.missedDeadlines),
         "count"});
    report.layers.push_back(
        {"serving.wait_p99_us", quantileOr0(open.waitUs, 0.99), "us"});
    report.layers.push_back(
        {"gen.late_p99_us", quantileOr0(open.lateUs, 0.99), "us"});
    return report;
}

// ---------------------------------------------------------------------
// rack: the congested stream on a 4x4 rack, no ML.

const char *const kRackTopology = "rack-4x4-mixed";

struct RackUnit
{
    double wall = 0.0;
    double placeSeconds = 0.0;
    std::vector<double> beExec;
    std::uint64_t decisions = 0;
    double remote = 0.0;
    double placedApps = 0.0;
    double dropped = 0.0;
    double fallbacks = 0.0;
    double linkGb = 0.0;
    double concurrency = 0.0;
    ClassCounts apps;
    std::uint64_t digest = 0;
};

RackUnit
rackUnit(const testbed::Topology &topology, SimTime duration,
         std::uint64_t seed)
{
    scenario::ScenarioConfig config;
    config.durationSec = duration;
    config.spawnMinSec = 3;
    config.spawnMaxSec = 10;
    config.seed = seed;
    config.maxConcurrent = 20;
    config.topology = kRackTopology;
    scenario::ClusterScenarioRunner runner(topology, config);
    core::LeastLoadedRemotePolicy least_loaded;
    TimedClusterPolicy policy(least_loaded);

    RackUnit unit;
    const double start = now();
    scenario::ClusterResult result;
    {
        ScopedSpan span("scenario.cluster");
        result = runner.run(policy);
    }
    unit.wall = now() - start;
    unit.placeSeconds = policy.placeSeconds;
    unit.decisions = policy.decisions;
    unit.dropped = static_cast<double>(result.droppedArrivals);
    unit.fallbacks = static_cast<double>(result.remoteFallbacks);
    for (const auto &link : result.linkTotals)
        unit.linkGb += link.deliveredGb;

    Digest digest;
    for (const auto &node : result.nodes) {
        unit.concurrency += meanOf(node.concurrency);
        for (const auto &record : node.records) {
            digest.add(record);
            unit.apps.add(record);
            if (record.cls == WorkloadClass::Interference)
                continue;
            unit.placedApps += 1.0;
            unit.remote += record.mode == MemoryMode::Remote;
            if (record.cls == WorkloadClass::BestEffort)
                unit.beExec.push_back(record.execTimeSec);
        }
    }
    digest.add(result.totalRemoteTrafficGB);
    digest.add(static_cast<std::uint64_t>(result.droppedArrivals));
    digest.add(static_cast<std::uint64_t>(result.remoteFallbacks));
    for (const auto &link : result.linkTotals)
        digest.add(link.deliveredGb);
    unit.digest = digest.hash;
    return unit;
}

Report
runRack(const Options &options, const Scale &scale)
{
    Report report;
    // Set-up builds the topology and warms the simulator with one short
    // scenario (first-touch allocation, lazily built tables).
    auto topology = setUp(report, scale.setupReps, [&] {
        auto topo = std::make_unique<testbed::Topology>(
            testbed::topologyByName(kRackTopology));
        rackUnit(*topo, scale.rackWarmupSec, kWarmupSeed);
        return topo;
    });

    std::vector<RackUnit> units;
    const auto phase = [&](std::size_t exact) {
        units.clear();
        const double seconds = options.trace ? options.seconds / 2.0
                                             : options.seconds;
        return runUnits(seconds, scale.rackInputs, exact,
                        [&](std::size_t i) {
                            units.push_back(rackUnit(
                                *topology, scale.rackDurationSec,
                                deriveSeed(options.seed, 51,
                                           i % scale.rackInputs)));
                        });
    };
    const auto metrics = [&]() {
        std::vector<double> walls, be_exec;
        double remote = 0.0, placed = 0.0, failures = 0.0, attempts = 0.0;
        for (std::size_t i = 0; i < units.size(); ++i) {
            const RackUnit &unit = units[i];
            walls.push_back(unit.wall);
            if (i >= scale.rackInputs)
                continue;
            be_exec.insert(be_exec.end(), unit.beExec.begin(),
                           unit.beExec.end());
            remote += unit.remote;
            placed += unit.placedApps;
            failures += unit.dropped + unit.fallbacks;
            attempts += static_cast<double>(unit.decisions) + unit.dropped;
        }
        const double wall = medianPerInput(walls, scale.rackInputs);
        return std::vector<Metric>{
            {"wall_s", wall, "s"},
            {"sim_s_per_host_s",
             share(static_cast<double>(scale.rackDurationSec), wall),
             "sim-s/s"},
            {"be_exec_p50_s", quantileOr0(be_exec, 0.5), "sim-s"},
            {"be_exec_p95_s", quantileOr0(be_exec, 0.95), "sim-s"},
            {"offload_pct", 100.0 * share(remote, placed), "%"},
            {"failed_pct", 100.0 * share(failures, attempts), "%"},
        };
    };

    const std::size_t count = phase(0);
    const std::vector<Metric> untraced = metrics();
    double untraced_wall = 0.0, decisions = 0.0;
    for (const auto &unit : units) {
        untraced_wall += unit.wall;
        decisions += static_cast<double>(unit.decisions);
    }
    for (const Metric &metric : untraced)
        report.e2e.push_back(metric);
    report.e2e.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    std::vector<double> unit_walls;
    for (const auto &unit : units)
        unit_walls.push_back(unit.wall);
    reportUnits(report, unit_walls, scale.rackInputs, "units");
    report.samples.push_back(
        {"be_exec_p50_s",
         static_cast<double>(std::min(units.size(), scale.rackInputs)),
         "scenarios"});
    report.attempted = static_cast<std::uint64_t>(decisions);

    ClassCounts apps;
    double concurrency = 0.0;
    for (const auto &unit : units) {
        apps += unit.apps;
        concurrency += unit.concurrency;
    }
    const double n = static_cast<double>(units.size());
    apps.report(report, n);
    report.traffic.push_back(
        {"mean_concurrency", share(concurrency, n), "apps"});
    report.traffic.push_back(
        {"offered_arrivals_per_sim_h", 3600.0 / 6.5, "1/sim-h"});
    report.traffic.push_back(
        {"achieved_decisions_per_sim_h",
         share(decisions * 3600.0,
               n * static_cast<double>(scale.rackDurationSec)),
         "1/sim-h"});
    report.traffic.push_back({"repeat_history_share", 0.0, "ratio"});

    report.check("sim_outputs_repeat_for_seed",
                 repeatsMatch(units, scale.rackInputs, [&] {
                     return rackUnit(*topology, scale.rackDurationSec,
                                     deriveSeed(options.seed, 51, 0));
                 }));

    if (!options.trace)
        return report;

    tracedPhase(report, 1 << 20, [&] { phase(count); });
    double traced_wall = 0.0, place = 0.0, fallbacks = 0.0, dropped = 0.0,
           link_gb = 0.0;
    for (const auto &unit : units) {
        traced_wall += unit.wall;
        place += unit.placeSeconds;
        fallbacks += unit.fallbacks;
        dropped += unit.dropped;
        link_gb += unit.linkGb;
    }
    reportOverhead(report, untraced, metrics(), untraced_wall, traced_wall);
    report.layers.push_back(
        {"scenario.cluster_self_s", traced_wall - place, "s"});
    report.layers.push_back({"core.place_rack_s", place, "s"});
    report.layers.push_back({"rack.remote_fallbacks", fallbacks, "count"});
    report.layers.push_back({"rack.dropped_arrivals", dropped, "count"});
    report.layers.push_back({"rack.link_gb", link_gb, "GB"});
    return report;
}

} // namespace

bool
knownWorkload(const std::string &name)
{
    return name == "train" || name == "orchestrate" || name == "serve" ||
           name == "rack";
}

Report
runWorkload(const Options &options)
{
    const Scale scale = scaleFor(options);
    // Create the default pool now, while this thread may still run on
    // every CPU: its workers inherit the mask of the thread that starts
    // them, and CpuRotation later pins this thread to one CPU at a time.
    ThreadPool::global();
    if (options.workload == "train")
        return runTrain(options, scale);
    if (options.workload == "orchestrate")
        return runOrchestrate(options, scale);
    if (options.workload == "serve")
        return runServe(options, scale);
    return runRack(options, scale);
}

} // namespace perfbench
