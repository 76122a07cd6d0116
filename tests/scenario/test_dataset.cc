/** @file Tests for signature collection and dataset building. */

#include <gtest/gtest.h>

#include "scenario/dataset.hh"

namespace adrias::scenario
{
namespace
{

TEST(SignatureStore, PutGetEraseRoundTrip)
{
    SignatureStore store;
    EXPECT_FALSE(store.has("sort"));
    EXPECT_THROW(store.get("sort"), std::runtime_error);

    std::vector<ml::Matrix> sig(3, ml::Matrix(1, 7));
    store.put("sort", sig);
    EXPECT_TRUE(store.has("sort"));
    EXPECT_EQ(store.get("sort").size(), 3u);
    EXPECT_EQ(store.size(), 1u);

    store.erase("sort");
    EXPECT_FALSE(store.has("sort"));
    EXPECT_EQ(store.size(), 0u);
}

TEST(SignatureStore, RejectsEmptySignature)
{
    SignatureStore store;
    EXPECT_THROW(store.put("x", {}), std::runtime_error);
}

TEST(CollectSignature, ShapeAndDeterminism)
{
    const auto &spec = workloads::sparkBenchmark("gmm");
    const auto sig_a = collectSignature(spec);
    const auto sig_b = collectSignature(spec);
    ASSERT_EQ(sig_a.size(), ScenarioRunner::kWindowBins);
    for (std::size_t t = 0; t < sig_a.size(); ++t) {
        EXPECT_EQ(sig_a[t].cols(), testbed::kNumPerfEvents);
        ASSERT_EQ(sig_a[t].size(), sig_b[t].size());
        for (std::size_t i = 0; i < sig_a[t].size(); ++i)
            EXPECT_NEAR(sig_a[t].raw()[i], sig_b[t].raw()[i], 1e-12);
    }
}

TEST(CollectSignature, DistinguishesApplications)
{
    // The signature is the app's identity: heavyweight nweight and
    // lightweight gmm must differ substantially.
    const auto heavy =
        collectSignature(workloads::sparkBenchmark("nweight"));
    const auto light = collectSignature(workloads::sparkBenchmark("gmm"));
    double diff = 0.0;
    for (std::size_t t = 0; t < heavy.size(); ++t)
        diff += (heavy[t] - light[t]).norm();
    EXPECT_GT(diff, 1.0);
}

TEST(CollectSignature, CapsLongRuns)
{
    // LC servers run for minutes; the profiling budget must bound it.
    const auto sig =
        collectSignature(workloads::redisSpec(), {}, 7, 50);
    EXPECT_EQ(sig.size(), ScenarioRunner::kWindowBins);
}

TEST(CollectAllSignatures, CoversAllApplications)
{
    SignatureStore store;
    collectAllSignatures(store);
    EXPECT_EQ(store.size(), 19u); // 17 Spark + Redis + Memcached
    EXPECT_TRUE(store.has("nweight"));
    EXPECT_TRUE(store.has("redis"));
    EXPECT_TRUE(store.has("memcached"));
}

class DatasetTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ScenarioConfig config;
        config.durationSec = 1500;
        config.spawnMinSec = 5;
        config.spawnMaxSec = 20;
        config.seed = 41;
        ScenarioRunner runner(config);
        RandomPlacement policy(5);
        results = new std::vector<ScenarioResult>{runner.run(policy)};
        signatures = new SignatureStore;
        collectAllSignatures(*signatures);
    }

    static void
    TearDownTestSuite()
    {
        delete results;
        delete signatures;
        results = nullptr;
        signatures = nullptr;
    }

    static std::vector<ScenarioResult> *results;
    static SignatureStore *signatures;
};

std::vector<ScenarioResult> *DatasetTest::results = nullptr;
SignatureStore *DatasetTest::signatures = nullptr;

TEST_F(DatasetTest, SystemStateSamplesHaveShape)
{
    const auto samples = DatasetBuilder::systemState(*results, 15);
    // 1500 s trace, window+horizon 240 -> ~(1500-240)/15 samples.
    EXPECT_GT(samples.size(), 70u);
    for (const auto &sample : samples) {
        EXPECT_EQ(sample.history.size(), ScenarioRunner::kWindowBins);
        EXPECT_EQ(sample.target.rows(), 1u);
        EXPECT_EQ(sample.target.cols(), testbed::kNumPerfEvents);
    }
}

TEST_F(DatasetTest, SystemStateStrideControlsDensity)
{
    const auto dense = DatasetBuilder::systemState(*results, 5);
    const auto sparse = DatasetBuilder::systemState(*results, 60);
    EXPECT_GT(dense.size(), 2 * sparse.size());
}

TEST_F(DatasetTest, SystemStateRejectsZeroStride)
{
    EXPECT_THROW(DatasetBuilder::systemState(*results, 0),
                 std::runtime_error);
}

TEST_F(DatasetTest, PerformanceSamplesForBestEffort)
{
    const auto samples = DatasetBuilder::performance(
        *results, *signatures, WorkloadClass::BestEffort);
    ASSERT_FALSE(samples.empty());
    for (const auto &sample : samples) {
        EXPECT_EQ(sample.cls, WorkloadClass::BestEffort);
        EXPECT_GT(sample.target, 0.0);
        EXPECT_EQ(sample.history.size(), ScenarioRunner::kWindowBins);
        EXPECT_EQ(sample.signature.size(), ScenarioRunner::kWindowBins);
        EXPECT_EQ(sample.futureWindow.cols(), testbed::kNumPerfEvents);
        EXPECT_EQ(sample.futureExec.cols(), testbed::kNumPerfEvents);
    }
}

TEST_F(DatasetTest, PerformanceSamplesExcludeTrashers)
{
    const auto samples = DatasetBuilder::performance(
        *results, *signatures, WorkloadClass::Interference);
    // iBench apps have no signatures, so nothing qualifies.
    EXPECT_TRUE(samples.empty());
}

TEST_F(DatasetTest, SplitDatasetPartitions)
{
    auto samples = DatasetBuilder::performance(
        *results, *signatures, WorkloadClass::BestEffort);
    const std::size_t total = samples.size();
    auto [train, test] = splitDataset(std::move(samples), 0.6, 7);
    EXPECT_EQ(train.size() + test.size(), total);
    EXPECT_NEAR(static_cast<double>(train.size()) /
                    static_cast<double>(total),
                0.6, 0.05);
}

TEST(SplitDataset, DeterministicShuffle)
{
    std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    auto [train_a, test_a] = splitDataset(items, 0.5, 3);
    auto [train_b, test_b] = splitDataset(items, 0.5, 3);
    EXPECT_EQ(train_a, train_b);
    EXPECT_EQ(test_a, test_b);
}

} // namespace
} // namespace adrias::scenario
