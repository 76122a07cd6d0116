#include "obs/metrics.hh"

#include <algorithm>
#include <vector>

#include "common/table.hh"
#include "obs/json.hh"

namespace adrias::obs
{

namespace
{

/**
 * Fixed reservoir seed: with a deterministic insertion order (serial
 * runs) the estimated quantiles are bit-reproducible run to run.
 */
constexpr std::uint64_t kReservoirSeed = 9001;

/** Render a SimTime field, mapping the "no stamp" sentinel to null. */
std::string
simTimeJson(SimTime t)
{
    if (t == Histogram::kNoSimTime)
        return "null";
    return std::to_string(t);
}

} // namespace

Histogram::Histogram()
    : reservoir(kReservoirCapacity, kReservoirSeed)
{
}

void
Histogram::observe(double value, SimTime now)
{
#if ADRIAS_OBS_ENABLED
    MutexLock lock(mu);
    summary.add(value);
    reservoir.add(value);
    if (now != kNoSimTime) {
        if (firstSim == kNoSimTime || now < firstSim)
            firstSim = now;
        if (lastSim == kNoSimTime || now > lastSim)
            lastSim = now;
    }
#else
    (void)value;
    (void)now;
#endif
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    MutexLock lock(mu);
    snap.count = summary.count();
    if (snap.count > 0) {
        snap.mean = summary.mean();
        snap.stddev = summary.stddev();
        snap.min = summary.min();
        snap.max = summary.max();
        snap.p50 = reservoir.quantile(0.50);
        snap.p90 = reservoir.quantile(0.90);
        snap.p99 = reservoir.quantile(0.99);
    }
    snap.firstSim = firstSim;
    snap.lastSim = lastSim;
    return snap;
}

void
Histogram::reset()
{
    MutexLock lock(mu);
    summary.reset();
    reservoir = stats::ReservoirSampler(kReservoirCapacity,
                                        kReservoirSeed);
    firstSim = kNoSimTime;
    lastSim = kNoSimTime;
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    MutexLock lock(mu);
    auto &slot = counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    MutexLock lock(mu);
    auto &slot = gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    MutexLock lock(mu);
    auto &slot = histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

std::string
MetricsRegistry::summaryTable() const
{
    TextTable table(
        {"metric", "kind", "count", "value", "p50", "p99", "max"});
    MutexLock lock(mu);
    for (const auto &[name, c] : counters)
        table.addRow({name, "counter", std::to_string(c->get()), "", "",
                      "", ""});
    for (const auto &[name, g] : gauges)
        table.addRow({name, "gauge", "", formatDouble(g->get(), 3), "",
                      "", ""});
    for (const auto &[name, h] : histograms) {
        const HistogramSnapshot snap = h->snapshot();
        table.addRow({name, "histogram", std::to_string(snap.count),
                      formatDouble(snap.mean, 4),
                      formatDouble(snap.p50, 4),
                      formatDouble(snap.p99, 4),
                      formatDouble(snap.max, 4)});
    }
    return table.toString();
}

void
MetricsRegistry::writeJsonl(std::ostream &out) const
{
    MutexLock lock(mu);
    for (const auto &[name, c] : counters)
        out << "{\"metric\": \"" << jsonEscape(name)
            << "\", \"kind\": \"counter\", \"value\": " << c->get()
            << "}\n";
    for (const auto &[name, g] : gauges)
        out << "{\"metric\": \"" << jsonEscape(name)
            << "\", \"kind\": \"gauge\", \"value\": "
            << jsonNumber(g->get()) << "}\n";
    for (const auto &[name, h] : histograms) {
        const HistogramSnapshot snap = h->snapshot();
        out << "{\"metric\": \"" << jsonEscape(name)
            << "\", \"kind\": \"histogram\", \"count\": " << snap.count
            << ", \"mean\": " << jsonNumber(snap.mean)
            << ", \"stddev\": " << jsonNumber(snap.stddev)
            << ", \"min\": " << jsonNumber(snap.min)
            << ", \"max\": " << jsonNumber(snap.max)
            << ", \"p50\": " << jsonNumber(snap.p50)
            << ", \"p90\": " << jsonNumber(snap.p90)
            << ", \"p99\": " << jsonNumber(snap.p99)
            << ", \"first_sim_s\": " << simTimeJson(snap.firstSim)
            << ", \"last_sim_s\": " << simTimeJson(snap.lastSim)
            << "}\n";
    }
}

void
MetricsRegistry::reset()
{
    MutexLock lock(mu);
    for (const auto &[name, c] : counters) {
        (void)name;
        c->reset();
    }
    for (const auto &[name, g] : gauges) {
        (void)name;
        g->reset();
    }
    for (const auto &[name, h] : histograms) {
        (void)name;
        h->reset();
    }
}

} // namespace adrias::obs
