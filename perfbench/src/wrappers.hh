/**
 * @file
 * Timing decorators around the library's public extension points: a
 * PredictorBase decorator and wrappers around PlacementPolicy and
 * ClusterPolicy.  They forward every call unchanged, time it, count it
 * and open a span for the traced phase.  Their clock reads cost tens
 * of nanoseconds against calls of tens of microseconds and more, so
 * the untraced phase uses them too, for the decision latencies.
 */

#ifndef PERFBENCH_WRAPPERS_HH
#define PERFBENCH_WRAPPERS_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "models/predictor.hh"
#include "scenario/cluster.hh"
#include "scenario/placement.hh"
#include "trace.hh"

namespace perfbench
{

/** Incremental FNV-1a over 64-bit words. */
struct Fnv1a
{
    std::uint64_t hash = 1469598103934665603ull;

    void
    add(std::uint64_t word)
    {
        hash ^= word;
        hash *= 1099511628211ull;
    }

    void
    add(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        add(bits);
    }
};

/** FNV-1a over a history window's shape and values. */
inline std::uint64_t
hashWindow(const std::vector<adrias::ml::Matrix> &window)
{
    Fnv1a fnv;
    fnv.add(static_cast<std::uint64_t>(window.size()));
    for (const adrias::ml::Matrix &step : window) {
        fnv.add(static_cast<std::uint64_t>(step.size()));
        for (double value : step.raw())
            fnv.add(value);
    }
    return fnv.hash;
}

/**
 * PredictorBase decorator.  Besides timing, it counts predictor rows
 * whose history window equals an earlier row's in the same group (one
 * placement decision, or one batch call): the rows a memo of the
 * system-state forward could skip.
 */
class TimedPredictor : public adrias::models::PredictorBase
{
  public:
    explicit TimedPredictor(const adrias::models::PredictorBase &inner_)
        : inner(inner_)
    {
    }

    adrias::ml::Matrix
    predictSystemState(const adrias::telemetry::Watcher &watcher)
        const override
    {
        ScopedSpan span("models.state");
        return inner.predictSystemState(watcher);
    }

    double
    predictPerformance(adrias::WorkloadClass cls,
                       const std::vector<adrias::ml::Matrix> &history,
                       const std::vector<adrias::ml::Matrix> &signature,
                       adrias::MemoryMode mode) const override
    {
        ScopedSpan span("models.predict");
        noteRow(history);
        const double start = now();
        const double out =
            inner.predictPerformance(cls, history, signature, mode);
        const double seconds = now() - start;
        ++predictCalls;
        predictSeconds += seconds;
        predictUs.push_back(seconds * 1e6);
        return out;
    }

    std::vector<double>
    predictPerformanceBatch(adrias::WorkloadClass cls,
                            const std::vector<PerfQuery> &queries)
        const override
    {
        ScopedSpan span("models.batch");
        beginGroup();
        for (const PerfQuery &query : queries)
            noteRow(*query.history);
        const double start = now();
        std::vector<double> out =
            inner.predictPerformanceBatch(cls, queries);
        batchSeconds += now() - start;
        ++batchCalls;
        batchRows += queries.size();
        beginGroup();
        return out;
    }

    bool trained() const override { return inner.trained(); }

    /** Start a new repeat-detection group. */
    void beginGroup() const { groupHashes.clear(); }

    /** Forget all tallies (between measured phases). */
    void
    reset()
    {
        predictCalls = batchCalls = batchRows = rows = repeatedRows = 0;
        predictSeconds = batchSeconds = 0.0;
        predictUs.clear();
        groupHashes.clear();
    }

    mutable std::uint64_t predictCalls = 0;
    mutable double predictSeconds = 0.0;
    mutable std::vector<double> predictUs;
    mutable std::uint64_t batchCalls = 0;
    mutable std::uint64_t batchRows = 0;
    mutable double batchSeconds = 0.0;
    mutable std::uint64_t rows = 0;
    mutable std::uint64_t repeatedRows = 0;

  private:
    const adrias::models::PredictorBase &inner;
    mutable std::vector<std::uint64_t> groupHashes;

    void
    noteRow(const std::vector<adrias::ml::Matrix> &history) const
    {
        const std::uint64_t hash = hashWindow(history);
        ++rows;
        for (std::uint64_t seen : groupHashes) {
            if (seen == hash) {
                ++repeatedRows;
                return;
            }
        }
        groupHashes.push_back(hash);
    }
};

/** PlacementPolicy wrapper: per-decision latency and decision paths. */
class TimedPlacement : public adrias::scenario::PlacementPolicy
{
  public:
    TimedPlacement(adrias::scenario::PlacementPolicy &inner_,
                   const TimedPredictor &predictor_)
        : inner(inner_), predictor(predictor_)
    {
    }

    std::string name() const override { return inner.name(); }

    adrias::MemoryMode
    place(const adrias::workloads::WorkloadSpec &spec,
          const adrias::telemetry::Watcher &watcher,
          adrias::SimTime now_tick) override
    {
        ScopedSpan span("core.place");
        predictor.beginGroup();
        const std::uint64_t calls_before = predictor.predictCalls;
        const double start = now();
        const adrias::MemoryMode mode =
            inner.place(spec, watcher, now_tick);
        const double seconds = now() - start;
        placeSeconds += seconds;
        latencyUs.push_back(seconds * 1e6);
        if (predictor.predictCalls > calls_before)
            ++modelDecisions;
        else
            ++ruleDecisions;
        remoteDecisions += mode == adrias::MemoryMode::Remote;
        return mode;
    }

    void
    onCompletion(const adrias::scenario::DeploymentRecord &record) override
    {
        inner.onCompletion(record);
    }

    double placeSeconds = 0.0;
    std::vector<double> latencyUs;
    std::uint64_t modelDecisions = 0;
    std::uint64_t ruleDecisions = 0; ///< cold or bootstrap: no predictor
    std::uint64_t remoteDecisions = 0;

  private:
    adrias::scenario::PlacementPolicy &inner;
    const TimedPredictor &predictor;
};

/** ClusterPolicy wrapper timing rack placements. */
class TimedClusterPolicy : public adrias::scenario::ClusterPolicy
{
  public:
    explicit TimedClusterPolicy(adrias::scenario::ClusterPolicy &inner_)
        : inner(inner_)
    {
    }

    std::string name() const override { return inner.name(); }

    adrias::scenario::ClusterPlacement
    place(const adrias::workloads::WorkloadSpec &spec,
          const std::vector<adrias::scenario::NodeView> &nodes,
          adrias::SimTime now_tick) override
    {
        return inner.place(spec, nodes, now_tick);
    }

    adrias::scenario::ClusterPlacement
    placeRack(const adrias::workloads::WorkloadSpec &spec,
              const std::vector<adrias::scenario::NodeView> &nodes,
              const adrias::scenario::RackView &rack,
              adrias::SimTime now_tick) override
    {
        ScopedSpan span("core.place_rack");
        const double start = now();
        const adrias::scenario::ClusterPlacement placement =
            inner.placeRack(spec, nodes, rack, now_tick);
        placeSeconds += now() - start;
        ++decisions;
        return placement;
    }

    void
    onCompletion(std::size_t node,
                 const adrias::scenario::DeploymentRecord &record) override
    {
        inner.onCompletion(node, record);
    }

    double placeSeconds = 0.0;
    std::uint64_t decisions = 0;

  private:
    adrias::scenario::ClusterPolicy &inner;
};

} // namespace perfbench

#endif // PERFBENCH_WRAPPERS_HH
