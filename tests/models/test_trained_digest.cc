/**
 * @file
 * Trained-weights pin: train a tiny Predictor (fixed seeds, few
 * epochs) and compare an FNV-1a digest of its saveState() bytes
 * against the checked-in golden digest.
 *
 * The scenario goldens train nothing (they place with
 * RandomPlacement), and the fused-vs-reference equivalence tests share
 * the same GEMM kernels on both sides, so this is the one check that a
 * kernel rewrite leaves every trained weight bitwise unchanged.
 * The digest must hold on both clones of the scalar kernels (DESIGN.md
 * §11.1), so CI also runs it in a -DADRIAS_SIMD=OFF build.
 *
 * Regenerate intentionally with:
 *     ADRIAS_UPDATE_GOLDEN=1 ./test_trained_digest
 * and commit the refreshed file together with the change that caused
 * it.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io/binary.hh"
#include "models/predictor.hh"
#include "scenario/dataset.hh"
#include "scenario/runner.hh"

#ifndef ADRIAS_GOLDEN_DIR
#error "ADRIAS_GOLDEN_DIR must point at the checked-in golden files"
#endif

namespace adrias::models
{
namespace
{

/** FNV-1a (64-bit) over a byte string, rendered as 16 hex digits. */
std::string
fnv1aHex(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
}

/** saveState() bytes of a tiny Predictor trained from fixed seeds. */
std::string
trainedStateBytes()
{
    scenario::ScenarioConfig scenario_config;
    scenario_config.durationSec = 1500;
    scenario_config.spawnMinSec = 5;
    scenario_config.spawnMaxSec = 25;
    scenario_config.seed = 313;
    scenario::ScenarioRunner runner(scenario_config);
    scenario::RandomPlacement policy(314);
    const std::vector<scenario::ScenarioResult> results{runner.run(policy)};

    scenario::SignatureStore signatures;
    scenario::collectAllSignatures(signatures);
    const auto state = scenario::DatasetBuilder::systemState(results, 10);
    const auto be = scenario::DatasetBuilder::performance(
        results, signatures, WorkloadClass::BestEffort);
    const auto lc = scenario::DatasetBuilder::performance(
        results, signatures, WorkloadClass::LatencyCritical);

    // Widths that are not multiples of four, so every GEMM's
    // remainder path carries part of the training.
    ModelConfig config;
    config.epochs = 3;
    config.hidden = 10;
    config.headWidth = 14;
    Predictor predictor(config);
    predictor.train(state, be, lc);

    io::BinaryWriter out;
    predictor.saveState(out);
    return out.data();
}

TEST(TrainedDigest, PredictorWeightsMatchCheckedInDigest)
{
    const std::string path =
        std::string(ADRIAS_GOLDEN_DIR) + "/trained_predictor.fnv1a";
    const std::string actual = fnv1aHex(trainedStateBytes()) + "\n";

    if (const char *update = std::getenv("ADRIAS_UPDATE_GOLDEN");
        update && std::string(update) == "1") {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden digest regenerated at " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden digest " << path
        << " — run with ADRIAS_UPDATE_GOLDEN=1 to create it";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str())
        << "trained weights changed; if intentional, regenerate with "
           "ADRIAS_UPDATE_GOLDEN=1 and commit the new digest";
}

} // namespace
} // namespace adrias::models
