/**
 * @file
 * Model-training walk-through: the offline/online split of the paper
 * made explicit.  Collects traces, builds the three datasets, trains
 * the system-state and performance models, saves each model's binary
 * state (raw 64-bit weights, normalization state, scalers, RNG
 * position) to disk, reloads it into a fresh model and verifies
 * bit-identical predictions — the workflow of a production deployment
 * where training and serving are separate processes.  ctest runs it as
 * `example_train_and_predict`, writing into the build tree.
 *
 * Usage:  ./build/examples/train_and_predict [model-dir]
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "core/adrias.hh"
#include "models/performance.hh"
#include "models/system_state.hh"

using namespace adrias;

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : ".";

    std::cout << "== Offline phase ==\n1. Collecting traces...\n";
    std::vector<scenario::ScenarioResult> results;
    for (std::uint64_t seed : {11, 12, 13, 14}) {
        scenario::ScenarioConfig config;
        config.durationSec = 1500;
        config.spawnMinSec = 5;
        config.spawnMaxSec = 30;
        config.seed = seed;
        scenario::ScenarioRunner runner(config);
        scenario::RandomPlacement policy(seed + 50);
        results.push_back(runner.run(policy));
    }

    std::cout << "2. Collecting application signatures...\n";
    scenario::SignatureStore signatures;
    scenario::collectAllSignatures(signatures);

    std::cout << "3. Building datasets...\n";
    auto state = scenario::DatasetBuilder::systemState(results, 5);
    auto [state_train, state_test] =
        scenario::splitDataset(std::move(state), 0.6, 3);
    auto be = scenario::DatasetBuilder::performance(
        results, signatures, WorkloadClass::BestEffort);
    auto [be_train, be_test] = scenario::splitDataset(std::move(be),
                                                      0.6, 3);
    std::cout << "   system-state: " << state_train.size() << " train / "
              << state_test.size() << " test\n   performance (BE): "
              << be_train.size() << " train / " << be_test.size()
              << " test\n";

    std::cout << "4. Training...\n";
    models::ModelConfig config;
    config.epochs = 40;
    models::SystemStateModel state_model(config);
    state_model.train(state_train);
    models::PerformanceModel perf_model(models::FutureKind::Predicted,
                                        config);
    perf_model.train(be_train, &state_model);

    const auto state_eval = state_model.evaluate(state_test);
    const auto perf_eval = perf_model.evaluate(be_test, &state_model);
    std::cout << "   system-state R^2 = "
              << formatDouble(state_eval.r2Average, 3)
              << ", BE performance R^2 = "
              << formatDouble(perf_eval.r2, 3) << "\n";

    std::cout << "5. Persisting models (weights + norm state + "
                 "scalers)...\n";
    const std::string state_path = dir + "/adrias_system_state.model";
    const std::string perf_path = dir + "/adrias_perf_be.model";
    state_model.save(state_path);
    perf_model.save(perf_path);

    std::cout << "\n== Online phase (separate process in production) "
                 "==\n6. Reloading into fresh models...\n";
    models::SystemStateModel serving_state(config);
    serving_state.load(state_path).expect();
    models::PerformanceModel serving_perf(models::FutureKind::Predicted,
                                          config);
    serving_perf.load(perf_path).expect();

    const auto &probe = be_test.front();
    const double trained_prediction = perf_model.predict(
        probe.history, probe.signature, probe.mode,
        state_model.predict(probe.history));
    const double serving_prediction = serving_perf.predict(
        probe.history, probe.signature, probe.mode,
        serving_state.predict(probe.history));
    std::cout << "   trained process predicts: "
              << formatDouble(trained_prediction, 2)
              << " s\n   serving process predicts: "
              << formatDouble(serving_prediction, 2)
              << " s\n   actual execution time:    "
              << formatDouble(probe.target, 2) << " s\n";
    // The binary round trip is bitwise: any difference is a bug.
    if (trained_prediction != serving_prediction)
        fatal("round-trip mismatch — serialization bug");

    std::remove(state_path.c_str());
    std::remove(perf_path.c_str());
    std::cout << "\nDone: serving predictions match the training "
                 "process exactly.\n";
    return 0;
}
