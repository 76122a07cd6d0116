/**
 * @file
 * Process-wide metrics registry (DESIGN.md §10): named counters,
 * gauges and sim-time-aware histograms that every layer of the
 * pipeline (testbed, Watcher, GuardedPredictor, Orchestrator,
 * ThreadPool, scenario runner) reports into.
 *
 * Design rules:
 *  - Registration is by name; the returned reference stays valid for
 *    the life of the process, so call sites hold a `static` reference
 *    and pay one map lookup ever.
 *  - Counters and gauges are lock-free atomics; histograms fold into
 *    stats::OnlineStats plus a seeded stats::ReservoirSampler behind
 *    the annotated Mutex, so TSan and -Wthread-safety stay clean.
 *  - Recording is inert until obs::setEnabled(true) (see obs.hh), and
 *    the whole layer compiles to no-ops under -DADRIAS_OBS=OFF
 *    (ADRIAS_OBS_ENABLED == 0): mutators become empty inline bodies
 *    and every instrumentation site is preprocessed away.
 */

#ifndef ADRIAS_OBS_METRICS_HH
#define ADRIAS_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "stats/online_stats.hh"
#include "stats/percentile.hh"

#ifndef ADRIAS_OBS_ENABLED
#define ADRIAS_OBS_ENABLED 1
#endif

namespace adrias::obs
{

/** Monotonic event tally (lock-free). */
class Counter
{
  public:
#if ADRIAS_OBS_ENABLED
    /** Add `n` (relaxed; tallies need no ordering). */
    void
    add(std::uint64_t n = 1)
    {
        value.fetch_add(n, std::memory_order_relaxed);
    }
#else
    void add(std::uint64_t = 1) {}
#endif

    /** @return the current tally. */
    std::uint64_t
    get() const
    {
        return value.load(std::memory_order_relaxed);
    }

    /** Zero the tally (tests and run boundaries). */
    void reset() { value.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value{0};
};

/** Last-write-wins instantaneous value (lock-free). */
class Gauge
{
  public:
#if ADRIAS_OBS_ENABLED
    /** Record the current level. */
    void set(double v) { value.store(v, std::memory_order_relaxed); }
#else
    void set(double) {}
#endif

    /** @return the most recently set level (0 before any set). */
    double get() const { return value.load(std::memory_order_relaxed); }

    /** Reset to 0. */
    void reset() { value.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value{0.0};
};

/** Point-in-time view of one Histogram. */
struct HistogramSnapshot
{
    std::size_t count = 0;

    /** Welford summary; NaN when empty (matching stats:: contracts). */
    double mean = std::numeric_limits<double>::quiet_NaN();
    double stddev = std::numeric_limits<double>::quiet_NaN();
    double min = std::numeric_limits<double>::quiet_NaN();
    double max = std::numeric_limits<double>::quiet_NaN();

    /** Reservoir-estimated quantiles; NaN when empty. */
    double p50 = std::numeric_limits<double>::quiet_NaN();
    double p90 = std::numeric_limits<double>::quiet_NaN();
    double p99 = std::numeric_limits<double>::quiet_NaN();

    /** Sim-time span of stamped observations (kNoSimTime when none). */
    SimTime firstSim = std::numeric_limits<SimTime>::min();
    SimTime lastSim = std::numeric_limits<SimTime>::min();
};

/**
 * Sim-time-aware distribution: exact moments via stats::OnlineStats,
 * bounded-memory quantiles via a seed-pinned stats::ReservoirSampler,
 * and the SimTime span of the stamped observations.
 */
class Histogram
{
  public:
    /** Sentinel for observations with no simulation timestamp. */
    static constexpr SimTime kNoSimTime =
        std::numeric_limits<SimTime>::min();

    /** Reservoir size: plenty for p99 at metric volumes. */
    static constexpr std::size_t kReservoirCapacity = 512;

    Histogram();

    /**
     * Fold one observation in.
     *
     * @param value the observation.
     * @param now optional simulation timestamp; widens the histogram's
     *        [firstSim, lastSim] span when provided.
     */
    void observe(double value, SimTime now = kNoSimTime)
        ADRIAS_EXCLUDES(mu);

    /** @return a consistent snapshot of moments, quantiles and span. */
    HistogramSnapshot snapshot() const ADRIAS_EXCLUDES(mu);

    /** Drop all state (reseeding the reservoir deterministically). */
    void reset() ADRIAS_EXCLUDES(mu);

  private:
    mutable Mutex mu;
    stats::OnlineStats summary ADRIAS_GUARDED_BY(mu);
    stats::ReservoirSampler reservoir ADRIAS_GUARDED_BY(mu);
    SimTime firstSim ADRIAS_GUARDED_BY(mu) = kNoSimTime;
    SimTime lastSim ADRIAS_GUARDED_BY(mu) = kNoSimTime;
};

/**
 * Name → metric map.  Metrics are created on first request and never
 * destroyed (references remain valid; reset() zeroes values only).
 * std::map keeps export order deterministic.
 */
class MetricsRegistry
{
  public:
    /** The process-wide registry every layer reports into. */
    static MetricsRegistry &global();

    /** @return the counter registered under `name` (created on 1st use). */
    Counter &counter(const std::string &name) ADRIAS_EXCLUDES(mu);

    /** @return the gauge registered under `name`. */
    Gauge &gauge(const std::string &name) ADRIAS_EXCLUDES(mu);

    /** @return the histogram registered under `name`. */
    Histogram &histogram(const std::string &name) ADRIAS_EXCLUDES(mu);

    /** Render every metric as a fixed-width text table (end-of-run). */
    std::string summaryTable() const ADRIAS_EXCLUDES(mu);

    /** One JSON object per metric per line (the metrics.jsonl export). */
    void writeJsonl(std::ostream &out) const ADRIAS_EXCLUDES(mu);

    /** Zero every value; registered objects stay alive. */
    void reset() ADRIAS_EXCLUDES(mu);

  private:
    mutable Mutex mu;
    std::map<std::string, std::unique_ptr<Counter>> counters
        ADRIAS_GUARDED_BY(mu);
    std::map<std::string, std::unique_ptr<Gauge>> gauges
        ADRIAS_GUARDED_BY(mu);
    std::map<std::string, std::unique_ptr<Histogram>> histograms
        ADRIAS_GUARDED_BY(mu);
};

} // namespace adrias::obs

#endif // ADRIAS_OBS_METRICS_HH
