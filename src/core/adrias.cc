#include "core/adrias.hh"

#include "common/logging.hh"

namespace adrias::core
{

AdriasStack::AdriasStack() : AdriasStack(BuildOptions{}) {}

AdriasStack::AdriasStack(BuildOptions options)
{
    if (options.scenarios == 0)
        fatal("AdriasStack: need at least one scenario");

    // 1. Design-time signatures for every catalogued application.
    scenario::collectAllSignatures(store, {}, options.seed);

    // 2. Interference-aware trace collection: random placement across
    //    a spread of arrival intensities (paper §V-B1), one scenario
    //    per sweep item so independent seeds run in parallel.
    const SimTime spawn_maxes[] = {20, 30, 40, 50, 60};
    std::vector<scenario::SweepItem> sweep(options.scenarios);
    for (std::size_t i = 0; i < options.scenarios; ++i) {
        sweep[i].config.durationSec = options.scenarioDurationSec;
        sweep[i].config.spawnMinSec = 5;
        sweep[i].config.spawnMaxSec =
            spawn_maxes[i % std::size(spawn_maxes)];
        sweep[i].config.seed = options.seed + i;
        sweep[i].policySeed = options.seed + 1000 + i;
    }
    collected = scenario::runScenarioSweep(sweep);

    // 3. Datasets and model training ({120, Ŝ} stacked configuration).
    const auto state_samples =
        scenario::DatasetBuilder::systemState(collected);
    const auto be_samples = scenario::DatasetBuilder::performance(
        collected, store, WorkloadClass::BestEffort);
    const auto lc_samples = scenario::DatasetBuilder::performance(
        collected, store, WorkloadClass::LatencyCritical);

    stack = models::Predictor(options.model);
    stack.train(state_samples, be_samples, lc_samples);
}

} // namespace adrias::core
