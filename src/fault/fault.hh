/**
 * @file
 * Deterministic fault injection for the Watcher → Predictor →
 * Orchestrator pipeline.
 *
 * A FaultSchedule lists time windows during which a fault class is
 * armed; the FaultInjector answers per-tick (or per-call) queries about
 * what actually fires.  All randomness is derived by hashing
 * (seed, kind, tick, salt), so answers are a pure function of the
 * schedule — independent of query order and repeatable across runs.
 * That property is what makes chaos scenarios byte-for-byte
 * reproducible from a single seed.
 */

#ifndef ADRIAS_FAULT_FAULT_HH
#define ADRIAS_FAULT_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/io/binary.hh"
#include "common/io/checkpoint_annotations.hh"
#include "common/types.hh"
#include "testbed/counters.hh"

namespace adrias::fault
{

/** Classes of injectable faults, one per pipeline boundary. */
enum class FaultKind : std::uint8_t
{
    /** Remote channel degraded: bandwidth scaled by `magnitude`. */
    LinkDegrade = 0,

    /** Remote channel flapping: per-tick coin; when it fires the
     *  channel is effectively down (residual bandwidth, saturated
     *  latency). */
    LinkFlap = 1,

    /** Watcher sample lost this tick (telemetry dropout). */
    CounterDrop = 2,

    /** One counter of the sample corrupted to NaN/Inf/negative. */
    CounterCorrupt = 3,

    /** Sample replaced by the previous tick's (stale repeat). */
    CounterStale = 4,

    /** Predictor inference latency spike of `magnitude` ms. */
    PredictorLatency = 5,

    /** Predictor inference call crashes. */
    PredictorCrash = 6,
};

/** Number of fault kinds (for iteration). */
inline constexpr std::size_t kNumFaultKinds = 7;

/** One armed window of a fault class. */
struct FaultWindow
{
    FaultKind kind = FaultKind::LinkDegrade;

    /** Window start, inclusive, seconds. */
    SimTime startSec = 0;

    /** Window end, exclusive, seconds. */
    SimTime endSec = 0;

    /**
     * Kind-specific severity: bandwidth scale in (0, 1] for
     * LinkDegrade, latency in ms for PredictorLatency; unused
     * otherwise.
     */
    double magnitude = 1.0;

    /** Per-tick (or per-call) firing probability within the window. */
    double probability = 1.0;

    /**
     * Link the window targets, by topology link name (LinkDegrade /
     * LinkFlap only).  Empty targets every link.
     */
    std::string link;
};

/** A seeded set of fault windows, wired in via ScenarioConfig. */
struct FaultSchedule
{
    /** Seed of the per-tick firing decisions. */
    std::uint64_t seed = 0xad51a5ULL;

    std::vector<FaultWindow> windows;

    /** @return true when no window is armed. */
    bool empty() const { return windows.empty(); }

    /** Builder-style append. */
    FaultSchedule &
    add(const FaultWindow &window)
    {
        windows.push_back(window);
        return *this;
    }
};

/** One link's state the testbed should apply this tick. */
struct LinkState
{
    /** Multiplier on the link's effective bandwidth, (0, 1]. */
    double bwScale = 1.0;

    /** Multiplier on the link's back-pressure latency, >= 1. */
    double latencyScale = 1.0;

    /** @return true when the link deviates from healthy. */
    bool
    faulted() const
    {
        return bwScale < 1.0 || latencyScale > 1.0;
    }
};

/** What happened to the counter sample of one tick. */
enum class CounterAction : std::uint8_t
{
    None,    ///< sample passed through untouched
    Drop,    ///< sample lost; Watcher must hold its last value
    Stale,   ///< sample silently replaced by the previous tick's
    Corrupt, ///< one event poisoned (NaN / Inf / negative)
};

/** Injection tallies, for tests and post-run reports. */
struct FaultStats
{
    std::size_t linkFaultTicks = 0;
    std::size_t samplesDropped = 0;
    std::size_t samplesStale = 0;
    std::size_t samplesCorrupted = 0;
    std::size_t predictorCrashes = 0;
    std::size_t predictorLatencySpikes = 0;

    /** @return total injected events across all classes. */
    std::size_t
    total() const
    {
        return linkFaultTicks + samplesDropped + samplesStale +
               samplesCorrupted + predictorCrashes +
               predictorLatencySpikes;
    }
};

/**
 * Executes a FaultSchedule.
 *
 * Query methods are pure functions of (schedule, arguments); the
 * injector only accumulates statistics about what the caller applied.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultSchedule schedule = {});

    /** @return the schedule being executed. */
    const FaultSchedule &schedule() const { return plan; }

    /**
     * @return true when `kind` actually fires at `now` — armed and the
     * deterministic per-tick coin comes up.  `salt` distinguishes
     * multiple independent draws within one tick (e.g. several
     * predictor calls).
     */
    bool firesAt(FaultKind kind, SimTime now, std::uint64_t salt = 0) const;

    /** Magnitude of the first armed window of `kind` at `now` (or the
     *  FaultWindow default when none is armed). */
    double magnitudeAt(FaultKind kind, SimTime now) const;

    /**
     * State to apply to one link this tick (degrade + flap combined):
     * windows targeting `link` by name apply alongside untargeted
     * (empty-name) windows, and the strongest firing window wins.
     * Firing coins are salted by the link name, so two links covered
     * by one window flap independently while staying a pure function
     * of (seed, kind, tick, link).
     */
    LinkState linkStateAt(SimTime now, const std::string &link);

    /**
     * Apply counter-pipeline faults to this tick's sample, in priority
     * order Drop > Stale > Corrupt.
     *
     * @param sample the tick's sample, corrupted in place.
     * @param previous previous tick's observed sample (nullptr on the
     *        first tick; Stale then degrades to Drop).
     * @param now tick time.
     * @return what was done, so the caller can route the sample.
     */
    CounterAction applyCounterFaults(testbed::CounterSample &sample,
                                     const testbed::CounterSample *previous,
                                     SimTime now);

    /** @return true when an armed PredictorCrash window fires for this
     *  call. */
    bool predictorCrashAt(SimTime now, std::uint64_t call_salt);

    /**
     * Modelled inference latency for this call: `base_ms` normally,
     * the window magnitude during an armed latency-spike window.
     */
    double predictorLatencyMsAt(SimTime now, std::uint64_t call_salt,
                                double base_ms);

    /** @return injection tallies so far. */
    const FaultStats &stats() const { return counters; }

    /**
     * Serialize the accumulated tallies (the schedule itself is
     * configuration and pure queries need no state).
     */
    void saveState(io::BinaryWriter &out) const;

    /** Restore tallies saved with saveState(). */
    [[nodiscard]] Result<void> restoreState(io::BinaryReader &in);

  private:
    FaultSchedule plan ADRIAS_NOT_CHECKPOINTED(
        "the schedule is construction-time configuration; only the "
        "tallies evolve");
    FaultStats counters;

    /** Uniform [0,1) draw, pure in (seed, kind, now, salt). */
    double roll(FaultKind kind, SimTime now, std::uint64_t salt) const;
};

} // namespace adrias::fault

#endif // ADRIAS_FAULT_FAULT_HH
