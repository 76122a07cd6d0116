#include "telemetry/watcher.hh"

#include <algorithm>
#include <cmath>

#include "common/invariant.hh"
#include "common/logging.hh"
#include "obs/obs.hh"

namespace adrias::telemetry
{

using testbed::CounterSample;
using testbed::kNumPerfEvents;

Watcher::Watcher(std::size_t capacity_seconds) : history(capacity_seconds)
{
}

void
Watcher::advanceStampLocked(SimTime now)
{
    ADRIAS_INVARIANT(now > lastStamp,
                     "watcher sample at t=" + std::to_string(now) +
                         " not after t=" + std::to_string(lastStamp));
    lastStamp = now;
}

std::size_t
Watcher::recordLocked(const CounterSample &sample)
{
    CounterSample accepted = sample;
    std::size_t repaired = 0;
    for (std::size_t e = 0; e < kNumPerfEvents; ++e) {
        if (std::isfinite(accepted[e]) && accepted[e] >= 0.0) {
            lastGood[e] = accepted[e];
            continue;
        }
        accepted[e] = lastGood[e]; // zero before any good value
        ++repaired;
    }
    if (repaired > 0) {
        ++state.samplesRepaired;
        state.eventsRepaired += repaired;
    }
    ++state.samplesAccepted;
    if (repaired == kNumPerfEvents) {
        // Every event was substituted: this sample carries no fresh
        // telemetry, so the dropout streak stays open.  Resetting
        // staleness here once made a run that ended on poisoned
        // samples under-report its worst streak.
        ++state.stalenessSec;
        state.maxStalenessSec =
            std::max(state.maxStalenessSec, state.stalenessSec);
    } else {
        haveGood = true;
        state.stalenessSec = 0;
    }
    history.push(accepted);

#if ADRIAS_OBS_ENABLED
    if (obs::enabled()) {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        static obs::Counter &accepted_c =
            reg.counter("watcher.samples_accepted");
        static obs::Counter &repaired_c =
            reg.counter("watcher.samples_repaired");
        static obs::Counter &events_c =
            reg.counter("watcher.events_repaired");
        accepted_c.add();
        if (repaired > 0) {
            repaired_c.add();
            events_c.add(repaired);
        }
    }
#endif
    return repaired;
}

void
Watcher::record(const CounterSample &sample)
{
    MutexLock lock(mu);
    recordLocked(sample);
}

void
Watcher::record(const CounterSample &sample, SimTime now)
{
    MutexLock lock(mu);
    advanceStampLocked(now);
    const std::size_t repaired = recordLocked(sample);
    (void)repaired;
#if ADRIAS_OBS_ENABLED
    if (repaired > 0 && obs::Tracer::global().enabled()) {
        obs::Tracer::global().simInstant(
            "repair", "watcher", now,
            {obs::arg("events_repaired",
                      static_cast<std::int64_t>(repaired)),
             obs::arg("staleness_s",
                      static_cast<std::int64_t>(state.stalenessSec))});
    }
#endif
}

void
Watcher::recordDroppedLocked()
{
    ++state.samplesDropped;
    ++state.stalenessSec;
    state.maxStalenessSec =
        std::max(state.maxStalenessSec, state.stalenessSec);
    // Hold the last value so window indexing stays one-per-second.
    history.push(haveGood ? lastGood : CounterSample{});

#if ADRIAS_OBS_ENABLED
    if (obs::enabled()) {
        static obs::Counter &dropped_c =
            obs::MetricsRegistry::global().counter(
                "watcher.samples_dropped");
        dropped_c.add();
    }
#endif
}

void
Watcher::recordDropped()
{
    MutexLock lock(mu);
    recordDroppedLocked();
}

void
Watcher::recordDropped(SimTime now)
{
    MutexLock lock(mu);
    advanceStampLocked(now);
    recordDroppedLocked();
#if ADRIAS_OBS_ENABLED
    if (obs::Tracer::global().enabled()) {
        obs::Tracer::global().simInstant(
            "dropout", "watcher", now,
            {obs::arg("staleness_s",
                      static_cast<std::int64_t>(state.stalenessSec))});
    }
#endif
}

WatcherHealth
Watcher::health() const
{
    MutexLock lock(mu);
    return state;
}

std::size_t
Watcher::sampleCount() const
{
    MutexLock lock(mu);
    return history.size();
}

void
Watcher::clear()
{
    MutexLock lock(mu);
    history.clear();
    state = WatcherHealth{};
    lastGood = CounterSample{};
    haveGood = false;
    lastStamp = kNoStamp;
}

void
Watcher::saveState(io::BinaryWriter &out) const
{
    MutexLock lock(mu);
    out.writeU64(history.capacity());
    out.writeU64(history.size());
    for (std::size_t i = 0; i < history.size(); ++i)
        for (double event : history.at(i))
            out.writeF64(event);
    out.writeU64(state.samplesAccepted);
    out.writeU64(state.samplesRepaired);
    out.writeU64(state.eventsRepaired);
    out.writeU64(state.samplesDropped);
    out.writeU64(state.stalenessSec);
    out.writeU64(state.maxStalenessSec);
    for (double event : lastGood)
        out.writeF64(event);
    out.writeBool(haveGood);
    out.writeI64(lastStamp);
}

Result<void>
Watcher::restoreState(io::BinaryReader &in)
{
    MutexLock lock(mu);
    const std::uint64_t capacity = in.readU64();
    if (capacity != history.capacity())
        return makeError(ErrorCode::Geometry,
                         "Watcher snapshot capacity " +
                             std::to_string(capacity) +
                             " != configured capacity " +
                             std::to_string(history.capacity()));
    const std::uint64_t samples = in.readU64();
    if (samples > capacity)
        return makeError(ErrorCode::BadNumber,
                         "Watcher snapshot holds more samples than its "
                         "capacity");
    history.clear();
    for (std::uint64_t i = 0; i < samples; ++i) {
        CounterSample sample{};
        for (double &event : sample)
            event = in.readF64();
        history.push(sample);
    }
    state.samplesAccepted = in.readU64();
    state.samplesRepaired = in.readU64();
    state.eventsRepaired = in.readU64();
    state.samplesDropped = in.readU64();
    state.stalenessSec = in.readU64();
    state.maxStalenessSec = in.readU64();
    for (double &event : lastGood)
        event = in.readF64();
    haveGood = in.readBool();
    lastStamp = in.readI64();
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "Watcher: truncated snapshot section");
    return {};
}

std::vector<ml::Matrix>
Watcher::binnedWindow(std::size_t window_seconds, std::size_t bins) const
{
    if (bins == 0 || window_seconds == 0)
        fatal("Watcher::binnedWindow needs positive window and bins");

#if ADRIAS_OBS_ENABLED
    obs::WallSpan window_span("binned_window", "watcher");
#endif

    MutexLock lock(mu);
    if (history.empty())
        fatal("Watcher::binnedWindow with no samples recorded");

    // Assemble the trailing window, left-padding a cold start with the
    // oldest available sample.
    std::vector<CounterSample> window(window_seconds);
    const std::size_t have = std::min(history.size(), window_seconds);
    const std::size_t pad = window_seconds - have;
    for (std::size_t i = 0; i < pad; ++i)
        window[i] = history.at(0);
    for (std::size_t i = 0; i < have; ++i)
        window[pad + i] = history.at(history.size() - have + i);

    return binSpan(window, 0, window.size(), bins);
}

CounterSample
Watcher::latest() const
{
    MutexLock lock(mu);
    if (history.empty())
        panic("Watcher::latest with no samples");
    return history.newest();
}

CounterSample
meanOverSpan(const std::vector<CounterSample> &trace, std::size_t begin,
             std::size_t end)
{
    if (begin >= end || end > trace.size())
        panic("meanOverSpan: invalid span");
    CounterSample mean{};
    for (std::size_t i = begin; i < end; ++i)
        for (std::size_t e = 0; e < kNumPerfEvents; ++e)
            mean[e] += trace[i][e];
    for (double &v : mean)
        v /= static_cast<double>(end - begin);
    return mean;
}

std::vector<ml::Matrix>
binSpan(const std::vector<CounterSample> &trace, std::size_t begin,
        std::size_t end, std::size_t bins)
{
    if (begin >= end || end > trace.size())
        panic("binSpan: invalid span");
    if (bins == 0)
        fatal("binSpan: need at least one bin");

    const std::size_t span = end - begin;
    std::vector<ml::Matrix> sequence;
    sequence.reserve(bins);
    for (std::size_t b = 0; b < bins; ++b) {
        // Partition the span as evenly as integer arithmetic allows.
        const std::size_t lo = begin + b * span / bins;
        std::size_t hi = begin + (b + 1) * span / bins;
        hi = std::max(hi, lo + 1);
        const CounterSample mean =
            meanOverSpan(trace, lo, std::min(hi, end));
        ml::Matrix step(1, kNumPerfEvents);
        for (std::size_t e = 0; e < kNumPerfEvents; ++e)
            step.at(0, e) = mean[e];
        sequence.push_back(std::move(step));
    }
    return sequence;
}

} // namespace adrias::telemetry
