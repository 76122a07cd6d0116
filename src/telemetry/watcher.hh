/**
 * @file
 * The Watcher component (paper §V-A): continuous 1 Hz sampling of the
 * testbed's performance events with a bounded history window, plus the
 * windowing/binning used to build model inputs.
 */

#ifndef ADRIAS_TELEMETRY_WATCHER_HH
#define ADRIAS_TELEMETRY_WATCHER_HH

#include <vector>

#include "common/error.hh"
#include "common/io/binary.hh"
#include "common/mutex.hh"
#include "common/ring_buffer.hh"
#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "ml/matrix.hh"
#include "testbed/counters.hh"

namespace adrias::telemetry
{

/** Self-repair and staleness tallies of one Watcher. */
struct WatcherHealth
{
    /** Samples accepted into the history (repaired ones included). */
    std::size_t samplesAccepted = 0;

    /** Samples that needed at least one event substituted. */
    std::size_t samplesRepaired = 0;

    /** Individual events substituted with the last good value. */
    std::size_t eventsRepaired = 0;

    /** Ticks on which no fresh sample arrived (telemetry dropout). */
    std::size_t samplesDropped = 0;

    /**
     * Consecutive ticks since the last fresh sample.  Dropouts and
     * fully-repaired samples (every event substituted) both extend the
     * streak; the first sample carrying at least one genuine event
     * resets it to 0.
     */
    std::size_t stalenessSec = 0;

    /**
     * Worst dropout streak seen, seconds.  Updated as a streak grows,
     * so a streak still open at end-of-run is already included.
     */
    std::size_t maxStalenessSec = 0;
};

/**
 * Rolling view of the monitored performance events.
 *
 * Keeps the last `capacity` one-second samples; exposes the paper's two
 * model inputs: the binned history sequence S (an r-second window
 * aggregated into fixed-length bins) and mean-over-window targets.
 *
 * The Watcher defends itself against corrupt telemetry: NaN, infinite
 * or negative events are replaced by the last good value of that event
 * (zero before any good value exists) and counted in health().  When
 * samples carry a simulation timestamp, ADRIAS_INVARIANT enforces that
 * time moves strictly forward.
 *
 * Thread-safe: history and tallies are guarded by an internal mutex so
 * a sampling thread and a predictor thread can share one Watcher (the
 * planned parallel scenario runner relies on this).  Accessors return
 * snapshots by value.
 */
class Watcher
{
  public:
    /** @param capacity_seconds history retention (>= window length). */
    explicit Watcher(std::size_t capacity_seconds = 600);

    /**
     * Record one tick's counter sample, repairing invalid events
     * (NaN/Inf/negative) with the last good value per event.
     */
    void record(const testbed::CounterSample &sample) ADRIAS_EXCLUDES(mu);

    /**
     * Timestamped variant: additionally asserts (ADRIAS_INVARIANT)
     * that `now` is strictly greater than the previous stamp — the
     * trace is one sample per second, never reordered or duplicated.
     */
    void record(const testbed::CounterSample &sample, SimTime now)
        ADRIAS_EXCLUDES(mu);

    /**
     * Record a telemetry dropout: no sample arrived this tick.  The
     * history is padded with the last known sample (zeros on a cold
     * start) so time stays aligned, and staleness counters advance.
     */
    void recordDropped() ADRIAS_EXCLUDES(mu);

    /** Timestamped dropout (same monotonicity invariant as record). */
    void recordDropped(SimTime now) ADRIAS_EXCLUDES(mu);

    /** @return repair/dropout tallies since construction or clear(). */
    WatcherHealth health() const ADRIAS_EXCLUDES(mu);

    /** @return number of samples currently retained. */
    std::size_t sampleCount() const ADRIAS_EXCLUDES(mu);

    /**
     * Binned history sequence over the trailing window — the model
     * input S of Fig. 11.
     *
     * @param window_seconds history length r (e.g. 120).
     * @param bins number of sequence steps (e.g. 12 -> 10 s bins).
     * @return time-major sequence of (1 x kNumPerfEvents) matrices,
     *         oldest bin first.  If fewer samples than the window are
     *         available the window is left-padded with the oldest
     *         sample (cold-start behaviour).
     */
    std::vector<ml::Matrix> binnedWindow(std::size_t window_seconds,
                                         std::size_t bins) const
        ADRIAS_EXCLUDES(mu);

    /** Most recent sample (snapshot). @pre sampleCount() > 0. */
    testbed::CounterSample latest() const ADRIAS_EXCLUDES(mu);

    /** Drop all history, health tallies and the timestamp watermark. */
    void clear() ADRIAS_EXCLUDES(mu);

    /**
     * Serialize the retained history (chronological), health tallies,
     * repair source and timestamp watermark.  Capacity is not part of
     * the payload — it is configuration, re-supplied on construction —
     * but it is recorded so a restore into a differently-sized Watcher
     * is rejected instead of silently truncating history.
     */
    void saveState(io::BinaryWriter &out) const ADRIAS_EXCLUDES(mu);

    /** Restore a payload from saveState(); replaces all state. */
    [[nodiscard]] Result<void> restoreState(io::BinaryReader &in)
        ADRIAS_EXCLUDES(mu);

  private:
    /** Guards every member below. */
    mutable Mutex mu;

    RingBuffer<testbed::CounterSample> history ADRIAS_GUARDED_BY(mu);
    WatcherHealth state ADRIAS_GUARDED_BY(mu);

    /** Last good value seen per event (repair source). */
    testbed::CounterSample lastGood ADRIAS_GUARDED_BY(mu) {};
    bool haveGood ADRIAS_GUARDED_BY(mu) = false;

    /** Stamp of the newest sample; samples must arrive in order. */
    SimTime lastStamp ADRIAS_GUARDED_BY(mu) = kNoStamp;

    static constexpr SimTime kNoStamp = -1;

    /** @return the number of events repaired in this sample. */
    std::size_t recordLocked(const testbed::CounterSample &sample)
        ADRIAS_REQUIRES(mu);
    void recordDroppedLocked() ADRIAS_REQUIRES(mu);
    void advanceStampLocked(SimTime now) ADRIAS_REQUIRES(mu);
};

/**
 * Mean of each event across a span of a recorded trace
 * [begin, end) — used by the dataset builder for horizon targets.
 */
testbed::CounterSample
meanOverSpan(const std::vector<testbed::CounterSample> &trace,
             std::size_t begin, std::size_t end);

/**
 * Bin a contiguous slice of a counter trace into a fixed-length
 * time-major sequence of (1 x kNumPerfEvents) matrices.
 *
 * @param trace full per-second trace.
 * @param begin first sample index (inclusive).
 * @param end one past the last sample (exclusive, > begin).
 * @param bins sequence length; samples are averaged per bin.
 */
std::vector<ml::Matrix>
binSpan(const std::vector<testbed::CounterSample> &trace, std::size_t begin,
        std::size_t end, std::size_t bins);

} // namespace adrias::telemetry

#endif // ADRIAS_TELEMETRY_WATCHER_HH
