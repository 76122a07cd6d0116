#include "fault/fault.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace adrias::fault
{

namespace
{

/** splitmix64 finalizer: the avalanche stage only. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Hash (seed, kind, now, salt) to one uniform draw in [0, 1). */
double
hashUniform(std::uint64_t seed, FaultKind kind, SimTime now,
            std::uint64_t salt)
{
    std::uint64_t h = mix64(seed ^ 0x5bf03635a1ce3e6fULL);
    h = mix64(h ^ (static_cast<std::uint64_t>(kind) + 1));
    h = mix64(h ^ static_cast<std::uint64_t>(now));
    h = mix64(h ^ salt);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/**
 * FNV-1a over a link name: a platform-independent salt so per-link
 * firing coins stay a pure function of (seed, kind, tick, link name)
 * across runs and machines (std::hash gives no such guarantee).
 */
std::uint64_t
linkSalt(const std::string &link)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : link) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

FaultInjector::FaultInjector(FaultSchedule schedule)
    : plan(std::move(schedule))
{
    for (const FaultWindow &window : plan.windows) {
        if (window.endSec < window.startSec)
            fatal("FaultInjector: window ends before it starts");
        if (window.probability < 0.0 || window.probability > 1.0)
            fatal("FaultInjector: probability outside [0, 1]");
        if (window.kind == FaultKind::LinkDegrade &&
            (window.magnitude <= 0.0 || window.magnitude > 1.0))
            fatal("FaultInjector: LinkDegrade magnitude must be in (0,1]");
    }
}

double
FaultInjector::roll(FaultKind kind, SimTime now, std::uint64_t salt) const
{
    return hashUniform(plan.seed, kind, now, salt);
}

bool
FaultInjector::firesAt(FaultKind kind, SimTime now,
                       std::uint64_t salt) const
{
    for (const FaultWindow &window : plan.windows) {
        if (window.kind != kind || now < window.startSec ||
            now >= window.endSec)
            continue;
        if (roll(kind, now, salt) < window.probability)
            return true;
    }
    return false;
}

double
FaultInjector::magnitudeAt(FaultKind kind, SimTime now) const
{
    for (const FaultWindow &window : plan.windows)
        if (window.kind == kind && now >= window.startSec &&
            now < window.endSec)
            return window.magnitude;
    return FaultWindow{}.magnitude;
}

LinkState
FaultInjector::linkStateAt(SimTime now, const std::string &link)
{
    LinkState state;
    const std::uint64_t salt = linkSalt(link);
    for (const FaultWindow &window : plan.windows) {
        if (!window.link.empty() && window.link != link)
            continue;
        if (now < window.startSec || now >= window.endSec)
            continue;
        if (window.kind == FaultKind::LinkDegrade &&
            roll(FaultKind::LinkDegrade, now, salt) <
                window.probability) {
            state.bwScale = std::min(state.bwScale, window.magnitude);
        } else if (window.kind == FaultKind::LinkFlap &&
                   roll(FaultKind::LinkFlap, now, salt) <
                       window.probability) {
            // A flap tick: nearly no payload gets through and the link
            // sits at its back-pressure plateau (~900/350 cycles).
            state.bwScale = std::min(state.bwScale, 0.02);
            state.latencyScale = std::max(state.latencyScale, 2.6);
        }
    }
    if (state.faulted())
        ++counters.linkFaultTicks;
    return state;
}

CounterAction
FaultInjector::applyCounterFaults(testbed::CounterSample &sample,
                                  const testbed::CounterSample *previous,
                                  SimTime now)
{
    if (firesAt(FaultKind::CounterDrop, now)) {
        ++counters.samplesDropped;
        return CounterAction::Drop;
    }
    if (firesAt(FaultKind::CounterStale, now)) {
        if (previous == nullptr) {
            // Nothing to repeat on the very first tick: degrade to a
            // dropout so the Watcher still sees the gap.
            ++counters.samplesDropped;
            return CounterAction::Drop;
        }
        sample = *previous;
        ++counters.samplesStale;
        return CounterAction::Stale;
    }
    if (firesAt(FaultKind::CounterCorrupt, now)) {
        // Deterministically pick the poisoned event and the poison
        // flavour from independent draws.
        const std::size_t event = static_cast<std::size_t>(
            roll(FaultKind::CounterCorrupt, now, 101) *
            static_cast<double>(testbed::kNumPerfEvents));
        const double flavour = roll(FaultKind::CounterCorrupt, now, 202);
        if (flavour < 0.4)
            sample[event] = std::numeric_limits<double>::quiet_NaN();
        else if (flavour < 0.7)
            sample[event] = std::numeric_limits<double>::infinity();
        else
            sample[event] = -1.0e12;
        ++counters.samplesCorrupted;
        return CounterAction::Corrupt;
    }
    return CounterAction::None;
}

bool
FaultInjector::predictorCrashAt(SimTime now, std::uint64_t call_salt)
{
    if (!firesAt(FaultKind::PredictorCrash, now, call_salt))
        return false;
    ++counters.predictorCrashes;
    return true;
}

double
FaultInjector::predictorLatencyMsAt(SimTime now, std::uint64_t call_salt,
                                    double base_ms)
{
    if (!firesAt(FaultKind::PredictorLatency, now, call_salt))
        return base_ms;
    ++counters.predictorLatencySpikes;
    return magnitudeAt(FaultKind::PredictorLatency, now);
}

void
FaultInjector::saveState(io::BinaryWriter &out) const
{
    out.writeU64(counters.linkFaultTicks);
    out.writeU64(counters.samplesDropped);
    out.writeU64(counters.samplesStale);
    out.writeU64(counters.samplesCorrupted);
    out.writeU64(counters.predictorCrashes);
    out.writeU64(counters.predictorLatencySpikes);
}

Result<void>
FaultInjector::restoreState(io::BinaryReader &in)
{
    counters.linkFaultTicks = in.readU64();
    counters.samplesDropped = in.readU64();
    counters.samplesStale = in.readU64();
    counters.samplesCorrupted = in.readU64();
    counters.predictorCrashes = in.readU64();
    counters.predictorLatencySpikes = in.readU64();
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "FaultInjector: truncated snapshot section");
    return {};
}

} // namespace adrias::fault
