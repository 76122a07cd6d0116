/**
 * @file
 * Umbrella header: the public API of the Adrias library.
 *
 * Downstream users include this single header to get the full stack —
 * testbed simulation, workloads, telemetry, scenario generation with
 * in-memory datasets, the prediction models, the orchestrator, and the
 * distribution summaries and regression metrics the benches print.
 * See examples/quickstart.cc.
 */

#ifndef ADRIAS_CORE_ADRIAS_HH
#define ADRIAS_CORE_ADRIAS_HH

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "core/orchestrator.hh"
#include "core/runtime_migrator.hh"
#include "core/schedulers.hh"
#include "fault/circuit_breaker.hh"
#include "fault/fault.hh"
#include "models/guard.hh"
#include "models/predictor.hh"
#include "scenario/cluster.hh"
#include "scenario/dataset.hh"
#include "scenario/runner.hh"
#include "scenario/signature.hh"
#include "stats/distribution.hh"
#include "stats/percentile.hh"
#include "stats/regression_metrics.hh"
#include "telemetry/watcher.hh"
#include "testbed/testbed.hh"
#include "workloads/workload.hh"

namespace adrias::core
{

/**
 * Convenience bundle for the common end-to-end flow: collect traces,
 * build datasets, train the Predictor and hand out orchestrators.
 */
class AdriasStack
{
  public:
    /** Trace-collection and training knobs. */
    struct BuildOptions
    {
        /** Number of randomized data-collection scenarios. */
        std::size_t scenarios = 6;

        /** Length of each scenario, seconds. */
        SimTime scenarioDurationSec = 1800;

        /** Base seed; scenario i uses seed + i. */
        std::uint64_t seed = 100;

        /** Model hyper-parameters. */
        models::ModelConfig model{};
    };

    /**
     * Run the full offline phase: signatures, random-placement trace
     * collection across spawn intervals {5,20}..{5,60}, dataset
     * construction and model training.
     */
    explicit AdriasStack(BuildOptions options);

    /** Build with all-default options. */
    AdriasStack();

    const models::Predictor &predictor() const { return stack; }
    scenario::SignatureStore &signatures() { return store; }

    /** Collected scenarios (reusable for evaluation benches). */
    const std::vector<scenario::ScenarioResult> &traces() const
    {
        return collected;
    }

    /** @return a fresh orchestrator bound to this stack. */
    AdriasOrchestrator
    makeOrchestrator(AdriasConfig config = {})
    {
        return AdriasOrchestrator(stack, store, config);
    }

  private:
    scenario::SignatureStore store;
    models::Predictor stack;
    std::vector<scenario::ScenarioResult> collected;
};

} // namespace adrias::core

#endif // ADRIAS_CORE_ADRIAS_HH
