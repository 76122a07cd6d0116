/**
 * @file
 * Golden end-to-end regression: a fixed tiny scenario, rendered to a
 * canonical text form and compared line-by-line against a checked-in
 * golden file.  Any change to the simulation pipeline that shifts a
 * completion time, a latency percentile or a trace aggregate shows up
 * here as a readable diff instead of a silent drift.
 *
 * tiny_scenario.golden pins a paper-pair ScenarioRunner run;
 * tiny_cluster.golden pins short ClusterScenarioRunner runs on a 2x2
 * CXL rack and on two independent pairs.
 *
 * Regenerate intentionally with:
 *     ADRIAS_UPDATE_GOLDEN=1 ./test_scenario \
 *         --gtest_filter=GoldenTest.*
 * and commit the refreshed file together with the change that caused
 * it.  Floats are rendered at %.6g so the golden survives benign
 * compiler/FMA differences while still pinning six significant digits.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/cluster.hh"
#include "scenario/runner.hh"
#include "testbed/topology.hh"

#ifndef ADRIAS_GOLDEN_DIR
#error "ADRIAS_GOLDEN_DIR must point at the checked-in golden files"
#endif

namespace
{

using namespace adrias;

std::string
num(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    return buffer;
}

/**
 * Trace: per-event totals pin the full counter stream without
 * committing megabytes of per-tick values to the repository.
 */
void
renderTrace(std::ostringstream &out, const scenario::ScenarioResult &result)
{
    for (std::size_t e = 0; e < testbed::kNumPerfEvents; ++e) {
        double total = 0.0;
        for (const auto &tick : result.trace)
            total += tick[e];
        out << "event " << e << " total " << num(total) << "\n";
    }
}

void
renderRecords(std::ostringstream &out,
              const std::vector<scenario::DeploymentRecord> &records)
{
    out << "records " << records.size() << "\n";
    for (const auto &record : records) {
        out << record.name << " cls=" << static_cast<int>(record.cls)
            << " mode=" << static_cast<int>(record.mode)
            << " arrival=" << record.arrival
            << " completion=" << record.completion
            << " exec=" << num(record.execTimeSec)
            << " p99=" << num(record.p99Ms)
            << " slowdown=" << num(record.meanSlowdown)
            << " traffic=" << num(record.remoteTrafficGB)
            << " migrations=" << record.migrations << "\n";
    }
}

/** Canonical text rendering of one scenario run. */
std::string
renderScenario()
{
    scenario::ScenarioConfig config;
    config.durationSec = 400;
    config.spawnMinSec = 5;
    config.spawnMaxSec = 20;
    config.seed = 20230228; // HPCA'23 — arbitrary but fixed forever

    scenario::ScenarioRunner runner(config);
    scenario::RandomPlacement policy(31);
    const auto result = runner.run(policy);

    std::ostringstream out;
    out << "golden scenario v1\n";
    out << "ticks " << result.trace.size() << "\n";
    renderTrace(out, result);
    out << "remote_traffic_gb " << num(result.totalRemoteTrafficGB)
        << "\n";

    renderRecords(out, result.records);
    return out.str();
}

/** Canonical text rendering of short cluster runs on two racks. */
std::string
renderCluster()
{
    std::ostringstream out;
    out << "golden cluster v1\n";
    for (const char *name : {"rack-2x2-cxl", "pairs-2"}) {
        scenario::ScenarioConfig config;
        config.durationSec = 300;
        config.spawnMinSec = 2;
        config.spawnMaxSec = 8;
        config.maxConcurrent = 8;
        config.seed = 20230228;

        scenario::ClusterScenarioRunner runner(
            testbed::topologyByName(name), config);
        scenario::RandomPlacement policy(31);
        const scenario::ClusterResult result = runner.run(policy);

        out << "topology " << result.topologyName << "\n";
        out << "remote_traffic_gb " << num(result.totalRemoteTrafficGB)
            << "\n";
        out << "dropped " << result.droppedArrivals << " fallbacks "
            << result.remoteFallbacks << "\n";
        for (std::size_t l = 0; l < result.linkTotals.size(); ++l) {
            const testbed::LinkTotals &link = result.linkTotals[l];
            out << "link " << l << " offered " << num(link.offeredGb)
                << " delivered " << num(link.deliveredGb) << " queued "
                << num(link.queuedGb) << " saturated "
                << link.saturatedTicks << "\n";
        }
        for (std::size_t n = 0; n < result.nodes.size(); ++n) {
            const scenario::ScenarioResult &node = result.nodes[n];
            out << "node " << n << " ticks " << node.trace.size() << "\n";
            renderTrace(out, node);
            renderRecords(out, node.records);
        }
    }
    return out.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/**
 * Compare `actual` against the checked-in golden `file`, or rewrite it
 * when ADRIAS_UPDATE_GOLDEN=1.
 */
void
expectMatchesGolden(const std::string &file, const std::string &actual)
{
    const std::string path = std::string(ADRIAS_GOLDEN_DIR) + "/" + file;

    if (const char *update = std::getenv("ADRIAS_UPDATE_GOLDEN");
        update && std::string(update) == "1") {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden file regenerated at " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — run with ADRIAS_UPDATE_GOLDEN=1 to create it";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string expected = buffer.str();

    if (actual == expected)
        return;

    // Build a focused diff: first divergence plus every differing line.
    const auto expected_lines = splitLines(expected);
    const auto actual_lines = splitLines(actual);
    std::ostringstream diff;
    diff << "golden mismatch against " << path << "\n"
         << "  expected " << expected_lines.size() << " lines, got "
         << actual_lines.size() << "\n";
    const std::size_t common =
        std::min(expected_lines.size(), actual_lines.size());
    std::size_t shown = 0;
    for (std::size_t i = 0; i < common && shown < 20; ++i) {
        if (expected_lines[i] == actual_lines[i])
            continue;
        diff << "  line " << (i + 1) << ":\n"
             << "    - " << expected_lines[i] << "\n"
             << "    + " << actual_lines[i] << "\n";
        ++shown;
    }
    diff << "If the change is intentional, regenerate with "
            "ADRIAS_UPDATE_GOLDEN=1 and commit the new golden.";
    FAIL() << diff.str();
}

TEST(GoldenTest, TinyScenarioMatchesCheckedInGolden)
{
    expectMatchesGolden("tiny_scenario.golden", renderScenario());
}

TEST(GoldenTest, TinyClusterMatchesCheckedInGolden)
{
    expectMatchesGolden("tiny_cluster.golden", renderCluster());
}

} // namespace
