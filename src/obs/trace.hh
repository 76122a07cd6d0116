/**
 * @file
 * Lightweight tracer (DESIGN.md §10): spans and instant events stamped
 * either in simulation time (SimTime seconds) or on the wall clock,
 * exported as a JSONL event stream and as Chrome trace_event JSON that
 * loads directly in about:tracing / Perfetto.
 *
 * Lane model: Chrome's pid/tid fields are repurposed.  pid 0 is the
 * simulation clock, pid 1 the wall clock — the two time bases never
 * share an axis.  tid is the obs "lane" (obs::ScopedLane), which the
 * scenario sweep sets per seed so overlapping simulations stay on
 * separate rows.
 *
 * Recording is gated on an atomic enabled flag (one relaxed load when
 * off) and bounded by kMaxEvents; overflow increments droppedEvents()
 * instead of growing without limit.  Under -DADRIAS_OBS=OFF the tracer
 * cannot be enabled and every record call is a no-op.
 */

#ifndef ADRIAS_OBS_TRACE_HH
#define ADRIAS_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "common/types.hh"

#ifndef ADRIAS_OBS_ENABLED
#define ADRIAS_OBS_ENABLED 1
#endif

namespace adrias::obs
{

/** One key plus a pre-rendered JSON value ("7", "1.5", "\"local\""). */
struct TraceArg
{
    std::string key;
    std::string json;
};

/** Build a numeric argument (non-finite doubles render as null). */
TraceArg arg(const std::string &key, double value);

/** Build an integer argument. */
TraceArg arg(const std::string &key, std::int64_t value);

/** Build a string argument (quoted and escaped). */
TraceArg arg(const std::string &key, const std::string &value);

/** Build a string argument from a literal. */
TraceArg arg(const std::string &key, const char *value);

/** One recorded event (Chrome trace_event field subset). */
struct TraceEvent
{
    std::string name;
    std::string cat;

    /** 'X' = complete span, 'i' = instant. */
    char phase = 'X';

    /** Timestamp in microseconds on the event's clock. */
    std::int64_t tsMicros = 0;

    /** Span duration in microseconds ('X' only). */
    std::int64_t durMicros = 0;

    /** true: wall-clock lane (pid 1); false: sim lane (pid 0). */
    bool wallClock = false;

    /** Row within the lane (obs::ScopedLane; 0 = main). */
    int lane = 0;

    std::vector<TraceArg> args;
};

/** Process-wide trace collector. */
class Tracer
{
  public:
    /** Event cap; further records are counted as dropped. */
    static constexpr std::size_t kMaxEvents = 1u << 20;

    /** The process-wide tracer. */
    static Tracer &global();

    /** Turn recording on/off (no-op under ADRIAS_OBS=OFF). */
    void setEnabled(bool on);

    /** @return true while recording. */
    bool
    enabled() const
    {
        return recording.load(std::memory_order_relaxed);
    }

    /**
     * Record a simulation-time span [begin, end] (whole seconds on the
     * sim clock, rendered as microseconds in the trace).
     */
    void simSpan(const std::string &name, const std::string &cat,
                 SimTime begin, SimTime end,
                 std::vector<TraceArg> args = {}) ADRIAS_EXCLUDES(mu);

    /** Record a simulation-time instant event. */
    void simInstant(const std::string &name, const std::string &cat,
                    SimTime t, std::vector<TraceArg> args = {})
        ADRIAS_EXCLUDES(mu);

    /**
     * Record a wall-clock span [begin, end] in seconds since the
     * tracer's epoch (values from wallNow()).
     */
    void wallSpan(const std::string &name, const std::string &cat,
                  double begin_s, double end_s,
                  std::vector<TraceArg> args = {}) ADRIAS_EXCLUDES(mu);

    /**
     * @return monotonic seconds since the tracer singleton was
     * created.  The single sanctioned wall-clock read in src/ outside
     * bench code: kernel timing needs real time by definition.
     */
    double wallNow() const;

    /** @return number of recorded events. */
    std::size_t eventCount() const ADRIAS_EXCLUDES(mu);

    /** @return events discarded after the kMaxEvents cap was hit. */
    std::size_t droppedEvents() const ADRIAS_EXCLUDES(mu);

    /** @return a copy of every recorded event (tests, exporters). */
    std::vector<TraceEvent> snapshot() const ADRIAS_EXCLUDES(mu);

    /** Discard all recorded events and the dropped tally. */
    void clear() ADRIAS_EXCLUDES(mu);

    /** Write the Chrome trace_event JSON document (about:tracing). */
    void writeChromeTrace(std::ostream &out) const ADRIAS_EXCLUDES(mu);

    /** Write one JSON object per event per line (events.jsonl). */
    void writeJsonl(std::ostream &out) const ADRIAS_EXCLUDES(mu);

  private:
    Tracer();

    void push(TraceEvent event) ADRIAS_EXCLUDES(mu);

    std::atomic<bool> recording{false};

    mutable Mutex mu;
    std::vector<TraceEvent> events ADRIAS_GUARDED_BY(mu);
    std::size_t dropped ADRIAS_GUARDED_BY(mu) = 0;

    /** wallNow() epoch, seconds (monotonic source, set at startup). */
    double epochSeconds ADRIAS_LOCK_FREE(
        "set once in the constructor, before any recording thread "
        "exists") = 0.0;
};

namespace detail
{
/** Swap the calling thread's lane; @return the previous lane. */
int exchangeLane(int lane);
} // namespace detail

/**
 * Scoped trace lane: events recorded by this thread inside the scope
 * carry `lane` as their tid, so e.g. the scenario sweep's overlapping
 * per-seed simulations land on separate about:tracing rows.
 */
class ScopedLane
{
  public:
    explicit ScopedLane(int lane) : previous(detail::exchangeLane(lane))
    {
    }

    ~ScopedLane() { detail::exchangeLane(previous); }

    ScopedLane(const ScopedLane &) = delete;
    ScopedLane &operator=(const ScopedLane &) = delete;

  private:
    int previous;
};

/**
 * RAII wall-clock span: one clock read at construction and one at
 * destruction, recorded only while the tracer is enabled.  Cheap
 * enough for per-tick scopes (a single relaxed load when disabled).
 */
class WallSpan
{
  public:
    WallSpan(const char *name, const char *cat);

    /** Span with arguments (only materialised while tracing). */
    WallSpan(const char *name, const char *cat,
             std::vector<TraceArg> args);

    ~WallSpan();

    WallSpan(const WallSpan &) = delete;
    WallSpan &operator=(const WallSpan &) = delete;

  private:
    const char *spanName;
    const char *category;
    std::vector<TraceArg> spanArgs;
    double beginSeconds = 0.0;
    bool active = false;
};

} // namespace adrias::obs

#endif // ADRIAS_OBS_TRACE_HH
