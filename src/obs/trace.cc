#include "obs/trace.hh"

#include <chrono>
#include <utility>

#include "obs/json.hh"

namespace adrias::obs
{

namespace
{

constexpr std::int64_t kMicrosPerSecond = 1000000;

/**
 * Monotonic seconds since an arbitrary epoch.  Kernel and span timing
 * needs real elapsed time by definition; this is the one sanctioned
 * wall-clock read in src/ (everything else must use SimTime).
 */
double
monotonicSeconds()
{
    // NOLINTNEXTLINE(wall-clock)
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch()).count();
}

/** Per-thread trace lane (tid in the exported events). */
thread_local int t_lane = 0;

/** Append one event's JSON object (shared by both exporters). */
void
writeEventJson(std::ostream &out, const TraceEvent &event)
{
    out << "{\"name\": \"" << jsonEscape(event.name) << "\", \"cat\": \""
        << jsonEscape(event.cat) << "\", \"ph\": \"" << event.phase
        << "\", \"pid\": " << (event.wallClock ? 1 : 0)
        << ", \"tid\": " << event.lane << ", \"ts\": " << event.tsMicros;
    if (event.phase == 'X')
        out << ", \"dur\": " << event.durMicros;
    if (event.phase == 'i')
        out << ", \"s\": \"t\"";
    if (!event.args.empty()) {
        out << ", \"args\": {";
        for (std::size_t i = 0; i < event.args.size(); ++i) {
            if (i > 0)
                out << ", ";
            out << "\"" << jsonEscape(event.args[i].key)
                << "\": " << event.args[i].json;
        }
        out << "}";
    }
    out << "}";
}

/** Chrome metadata event naming one pid lane (no trailing comma). */
void
writeProcessName(std::ostream &out, int pid, const char *name)
{
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
        << ", \"tid\": 0, \"args\": {\"name\": \"" << name << "\"}}";
}

} // namespace

TraceArg
arg(const std::string &key, double value)
{
    return {key, jsonNumber(value)};
}

TraceArg
arg(const std::string &key, std::int64_t value)
{
    return {key, std::to_string(value)};
}

TraceArg
arg(const std::string &key, const std::string &value)
{
    // Appended, not "\"" + ...: GCC 12 warns -Wrestrict on that form.
    std::string quoted = "\"";
    quoted += jsonEscape(value);
    quoted += '"';
    return {key, std::move(quoted)};
}

TraceArg
arg(const std::string &key, const char *value)
{
    return arg(key, std::string(value));
}

int
detail::exchangeLane(int lane)
{
    const int previous = t_lane;
    t_lane = lane;
    return previous;
}

Tracer::Tracer() : epochSeconds(monotonicSeconds())
{
}

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::setEnabled(bool on)
{
#if ADRIAS_OBS_ENABLED
    recording.store(on, std::memory_order_relaxed);
#else
    (void)on;
#endif
}

double
Tracer::wallNow() const
{
    return monotonicSeconds() - epochSeconds;
}

void
Tracer::push(TraceEvent event)
{
    MutexLock lock(mu);
    if (events.size() >= kMaxEvents) {
        ++dropped;
        return;
    }
    events.push_back(std::move(event));
}

void
Tracer::simSpan(const std::string &name, const std::string &cat,
                SimTime begin, SimTime end, std::vector<TraceArg> args)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.name = name;
    event.cat = cat;
    event.phase = 'X';
    event.tsMicros = begin * kMicrosPerSecond;
    event.durMicros = (end - begin) * kMicrosPerSecond;
    event.wallClock = false;
    event.lane = t_lane;
    event.args = std::move(args);
    push(std::move(event));
}

void
Tracer::simInstant(const std::string &name, const std::string &cat,
                   SimTime t, std::vector<TraceArg> args)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.name = name;
    event.cat = cat;
    event.phase = 'i';
    event.tsMicros = t * kMicrosPerSecond;
    event.wallClock = false;
    event.lane = t_lane;
    event.args = std::move(args);
    push(std::move(event));
}

void
Tracer::wallSpan(const std::string &name, const std::string &cat,
                 double begin_s, double end_s, std::vector<TraceArg> args)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.name = name;
    event.cat = cat;
    event.phase = 'X';
    event.tsMicros = static_cast<std::int64_t>(
        begin_s * static_cast<double>(kMicrosPerSecond));
    event.durMicros = static_cast<std::int64_t>(
        (end_s - begin_s) * static_cast<double>(kMicrosPerSecond));
    if (event.durMicros < 0)
        event.durMicros = 0;
    event.wallClock = true;
    event.lane = t_lane;
    event.args = std::move(args);
    push(std::move(event));
}

std::size_t
Tracer::eventCount() const
{
    MutexLock lock(mu);
    return events.size();
}

std::size_t
Tracer::droppedEvents() const
{
    MutexLock lock(mu);
    return dropped;
}

std::vector<TraceEvent>
Tracer::snapshot() const
{
    MutexLock lock(mu);
    return events;
}

void
Tracer::clear()
{
    MutexLock lock(mu);
    events.clear();
    dropped = 0;
}

void
Tracer::writeChromeTrace(std::ostream &out) const
{
    MutexLock lock(mu);
    out << "{\"traceEvents\": [\n";
    writeProcessName(out, 0, "simulation time");
    out << ",\n";
    writeProcessName(out, 1, "wall clock");
    for (const TraceEvent &event : events) {
        out << ",\n";
        writeEventJson(out, event);
    }
    out << "\n],\n\"displayTimeUnit\": \"ms\",\n"
        << "\"otherData\": {\"generator\": \"adrias-obs\", "
        << "\"dropped_events\": " << dropped << "}}\n";
}

void
Tracer::writeJsonl(std::ostream &out) const
{
    MutexLock lock(mu);
    for (const TraceEvent &event : events) {
        writeEventJson(out, event);
        out << "\n";
    }
}

WallSpan::WallSpan(const char *name, const char *cat)
    : spanName(name), category(cat)
{
    Tracer &tracer = Tracer::global();
    active = tracer.enabled();
    if (active)
        beginSeconds = tracer.wallNow();
}

WallSpan::WallSpan(const char *name, const char *cat,
                   std::vector<TraceArg> args)
    : spanName(name), category(cat)
{
    Tracer &tracer = Tracer::global();
    active = tracer.enabled();
    if (active) {
        spanArgs = std::move(args);
        beginSeconds = tracer.wallNow();
    }
}

WallSpan::~WallSpan()
{
    if (!active)
        return;
    Tracer &tracer = Tracer::global();
    tracer.wallSpan(spanName, category, beginSeconds, tracer.wallNow(),
                    std::move(spanArgs));
}

} // namespace adrias::obs
