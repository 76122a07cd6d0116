/**
 * @file
 * What one benchmark process reports, rendered as a single JSON line
 * that run.py reads: end-to-end metrics with their units, generated
 * traffic, per-layer metrics, the attribution table and the outcome of
 * every correctness check.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "stats/percentile.hh"

namespace perfbench
{

/** q-quantile (type 7); 0 for an empty sample. */
inline double
quantileOr0(const std::vector<double> &values, double q)
{
    return values.empty() ? 0.0 : adrias::stats::quantile(values, q);
}

/** Named value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one workload run reports. */
struct Report
{
    std::vector<Metric> e2e;     ///< end-to-end, measured untraced
    std::vector<Metric> samples; ///< sample count behind a timing metric
    std::vector<Metric> traffic; ///< properties of the generated inputs
    std::vector<Metric> layers;  ///< per-layer, from the traced phase
    std::vector<Metric> overhead; ///< traced minus untraced value
    std::vector<Metric> threaded; ///< end-to-end at default threads
    unsigned threads = 1;         ///< pool threads behind `threaded`
    std::vector<std::pair<std::string, double>> attribution;
    double attributionWall = 0.0;
    std::vector<std::pair<std::string, bool>> checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(const std::string &name, bool ok)
    {
        checks.emplace_back(name, ok);
    }

    std::string
    json(const std::string &workload, std::uint64_t seed,
         bool traced) const
    {
        using adrias::obs::jsonEscape;
        using adrias::obs::jsonNumber;
        const auto metrics = [](const std::vector<Metric> &list) {
            std::string out = "{";
            for (std::size_t i = 0; i < list.size(); ++i) {
                out += (i ? ", \"" : "\"") + jsonEscape(list[i].name) +
                       "\": {\"value\": " + jsonNumber(list[i].value) +
                       ", \"unit\": \"" + jsonEscape(list[i].unit) + "\"}";
            }
            return out + "}";
        };
        std::string out = "{\"workload\": \"" + jsonEscape(workload) +
                          "\", \"seed\": " + std::to_string(seed) +
                          ", \"traced\": " + (traced ? "true" : "false") +
                          ", \"attempted\": " + std::to_string(attempted) +
                          ", \"failed\": " + std::to_string(failed);
        out += ", \"e2e\": " + metrics(e2e);
        out += ", \"samples\": " + metrics(samples);
        out += ", \"traffic\": " + metrics(traffic);
        out += ", \"layers\": " + metrics(layers);
        out += ", \"overhead\": " + metrics(overhead);
        out += ", \"threaded\": " + metrics(threaded);
        out += ", \"threads\": " + std::to_string(threads);
        out += ", \"attribution_wall_s\": " + jsonNumber(attributionWall);
        out += ", \"attribution\": [";
        for (std::size_t i = 0; i < attribution.size(); ++i)
            out += std::string(i ? ", " : "") + "[\"" +
                   jsonEscape(attribution[i].first) + "\", " +
                   jsonNumber(attribution[i].second) + "]";
        out += "], \"checks\": {";
        for (std::size_t i = 0; i < checks.size(); ++i)
            out += std::string(i ? ", \"" : "\"") +
                   jsonEscape(checks[i].first) + "\": " +
                   (checks[i].second ? "true" : "false");
        return out + "}}";
    }
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
