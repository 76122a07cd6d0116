/**
 * @file
 * Kill-point chaos tests (ctest -L recovery): a RecoverableScenario is
 * crashed at every interesting instant — between ticks, mid-snapshot
 * write, just before the snapshot rename, mid-journal append — and a
 * fresh process recovering from the same directory must finish with a
 * ScenarioResult that is BITWISE identical to an uninterrupted run.
 *
 * On top of the kill matrix, the on-disk artifacts are corrupted
 * (truncated / bit-flipped / zero-length snapshots and journals)
 * between death and recovery; recovery must fall back or compact and
 * STILL reproduce the exact same bytes.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/io/binary.hh"
#include "core/schedulers.hh"
#include "fault/crash.hh"
#include "recovery/recoverable.hh"
#include "scenario/runner.hh"

namespace adrias::recovery
{
namespace
{

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

scenario::ScenarioConfig
scenarioConfig()
{
    scenario::ScenarioConfig config;
    config.durationSec = 300;
    config.spawnMinSec = 5;
    config.spawnMaxSec = 20;
    config.seed = 20230228;
    return config;
}

RecoveryConfig
recoveryConfig(const std::string &dir)
{
    RecoveryConfig config;
    config.dir = dir;
    config.checkpointEverySec = 60;
    config.keepSnapshots = 2;
    return config;
}

constexpr std::uint64_t kPolicySeed = 31;

/**
 * Serialize EVERY field of a ScenarioResult with exact bit patterns
 * (writeF64 round-trips NaN and -0.0), so two digests are equal iff
 * the results are bitwise identical.
 */
std::string
digest(const scenario::ScenarioResult &result)
{
    io::BinaryWriter out;
    out.writeU64(result.trace.size());
    for (const testbed::CounterSample &sample : result.trace)
        for (double v : sample)
            out.writeF64(v);
    out.writeI32Vector(result.concurrency);

    out.writeU64(result.records.size());
    for (const scenario::DeploymentRecord &r : result.records) {
        out.writeU64(r.id);
        out.writeString(r.name);
        out.writeU8(static_cast<std::uint8_t>(r.cls));
        out.writeU8(static_cast<std::uint8_t>(r.mode));
        out.writeI64(r.arrival);
        out.writeI64(r.completion);
        out.writeF64(r.execTimeSec);
        out.writeF64(r.p99Ms);
        out.writeF64(r.p999Ms);
        out.writeF64(r.meanSlowdown);
        out.writeF64(r.remoteTrafficGB);
        out.writeU64(r.migrations);
        for (const auto *window : {&r.historyWindow, &r.executionWindow}) {
            out.writeU64(window->size());
            for (const ml::Matrix &m : *window) {
                out.writeU64(m.rows());
                out.writeU64(m.cols());
                for (std::size_t i = 0; i < m.rows(); ++i)
                    for (std::size_t j = 0; j < m.cols(); ++j)
                        out.writeF64(m.at(i, j));
            }
        }
    }

    out.writeF64(result.totalRemoteTrafficGB);
    out.writeU64(result.faultSummary.linkFaultTicks);
    out.writeU64(result.faultSummary.samplesDropped);
    out.writeU64(result.faultSummary.samplesStale);
    out.writeU64(result.faultSummary.samplesCorrupted);
    out.writeU64(result.faultSummary.predictorCrashes);
    out.writeU64(result.faultSummary.predictorLatencySpikes);
    out.writeU64(result.watcherHealth.samplesAccepted);
    out.writeU64(result.watcherHealth.samplesRepaired);
    out.writeU64(result.watcherHealth.eventsRepaired);
    out.writeU64(result.watcherHealth.samplesDropped);
    out.writeU64(result.watcherHealth.stalenessSec);
    out.writeU64(result.watcherHealth.maxStalenessSec);
    return out.take();
}

/** The ground truth: the same scenario driven by the plain runner. */
const std::string &
baselineDigest()
{
    static const std::string d = [] {
        scenario::ScenarioRunner runner(scenarioConfig());
        scenario::RandomPlacement policy(kPolicySeed);
        return digest(runner.run(policy));
    }();
    return d;
}

/** Run phase 1 in `dir` until the planned crash kills it. */
void
runUntilCrash(const std::string &dir, const fault::CrashPlan &plan)
{
    RecoverableScenario victim(scenarioConfig(), recoveryConfig(dir));
    scenario::RandomPlacement policy(kPolicySeed);
    victim.attachSection(policy);
    fault::CrashInjector injector(plan);
    victim.setCrashInjector(&injector);

    Result<RecoveryReport> started = victim.start();
    ASSERT_TRUE(started.ok());
    EXPECT_FALSE(started.value().restored);

    EXPECT_THROW((void)victim.run(policy), fault::InjectedCrash);
    EXPECT_TRUE(injector.fired());
}

/** Phase 2: a fresh "process" over the same directory finishes the
 *  run; returns its digest (reportOut optional). */
std::string
recoverAndFinish(const std::string &dir,
                 RecoveryReport *reportOut = nullptr)
{
    RecoverableScenario revived(scenarioConfig(), recoveryConfig(dir));
    scenario::RandomPlacement policy(kPolicySeed);
    revived.attachSection(policy);

    Result<RecoveryReport> started = revived.start();
    EXPECT_TRUE(started.ok());
    if (!started.ok())
        return {};
    if (reportOut != nullptr)
        *reportOut = started.value();
    return digest(revived.run(policy));
}

TEST(KillPoints, UninterruptedRecoverableRunMatchesPlainRunner)
{
    // The checkpoint/journal machinery itself must not perturb the
    // simulation: no crash, just overhead.
    const std::string dir = freshDir("adrias_kp_uninterrupted");
    RecoverableScenario scenario(scenarioConfig(), recoveryConfig(dir));
    scenario::RandomPlacement policy(kPolicySeed);
    scenario.attachSection(policy);
    ASSERT_TRUE(scenario.start().ok());
    EXPECT_EQ(digest(scenario.run(policy)), baselineDigest());

    // The cadence produced snapshots and rotated journal epochs.
    EXPECT_TRUE(
        std::filesystem::exists(dir + "/snap-240.adck"));
}

TEST(KillPoints, CrashBetweenTicksMidEpoch)
{
    const std::string dir = freshDir("adrias_kp_midepoch");
    runUntilCrash(dir, {fault::CrashSite::BetweenTicks, 150});

    RecoveryReport report;
    const std::string recovered = recoverAndFinish(dir, &report);
    EXPECT_TRUE(report.restored);
    EXPECT_EQ(report.snapshotTick, 120);
    EXPECT_EQ(recovered, baselineDigest());
}

TEST(KillPoints, CrashBeforeFirstCheckpointRecoversFromJournalAlone)
{
    const std::string dir = freshDir("adrias_kp_early");
    runUntilCrash(dir, {fault::CrashSite::BetweenTicks, 30});

    RecoveryReport report;
    const std::string recovered = recoverAndFinish(dir, &report);
    // No snapshot existed yet: fresh engine + full journal replay.
    EXPECT_FALSE(report.restored);
    EXPECT_GT(report.replayedDecisions, 0u);
    EXPECT_EQ(recovered, baselineDigest());
}

TEST(KillPoints, CrashMidCheckpointWrite)
{
    const std::string dir = freshDir("adrias_kp_midsnap");
    runUntilCrash(dir, {fault::CrashSite::MidCheckpoint, 120});

    // The snap-120 write died halfway: only a torn .tmp exists.
    EXPECT_FALSE(std::filesystem::exists(dir + "/snap-120.adck"));

    RecoveryReport report;
    const std::string recovered = recoverAndFinish(dir, &report);
    EXPECT_TRUE(report.restored);
    EXPECT_EQ(report.snapshotTick, 60);
    EXPECT_EQ(report.rejectedSnapshots, 0u);
    EXPECT_EQ(recovered, baselineDigest());
}

TEST(KillPoints, CrashBeforeCheckpointRename)
{
    const std::string dir = freshDir("adrias_kp_prerename");
    runUntilCrash(dir, {fault::CrashSite::BeforeCheckpointRename, 120});

    // Fully-written temp, never renamed: recovery must ignore it.
    EXPECT_TRUE(std::filesystem::exists(dir + "/snap-120.adck.tmp"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/snap-120.adck"));

    RecoveryReport report;
    const std::string recovered = recoverAndFinish(dir, &report);
    EXPECT_TRUE(report.restored);
    EXPECT_EQ(report.snapshotTick, 60);
    EXPECT_EQ(recovered, baselineDigest());
    EXPECT_FALSE(std::filesystem::exists(dir + "/snap-120.adck.tmp"));
}

TEST(KillPoints, CrashMidJournalAppend)
{
    const std::string dir = freshDir("adrias_kp_midappend");
    runUntilCrash(dir, {fault::CrashSite::MidJournalAppend, 130});

    RecoveryReport report;
    const std::string recovered = recoverAndFinish(dir, &report);
    EXPECT_TRUE(report.restored);
    EXPECT_EQ(report.snapshotTick, 120);
    // The half-written decision record was compacted away and
    // re-derived during the resumed run.
    EXPECT_GE(report.tornTails, 1u);
    EXPECT_EQ(recovered, baselineDigest());
}

TEST(KillPoints, CorruptNewestSnapshotFallsBackToOlder)
{
    for (const char *corruption : {"truncate", "bitflip", "zero"}) {
        const std::string dir = freshDir(
            std::string("adrias_kp_snapcorrupt_") + corruption);
        runUntilCrash(dir, {fault::CrashSite::BetweenTicks, 150});

        const std::string newest = dir + "/snap-120.adck";
        Result<std::string> intact = io::readFile(newest);
        ASSERT_TRUE(intact.ok());
        std::string bytes = intact.value();
        if (std::string(corruption) == "truncate")
            bytes.resize(bytes.size() / 2);
        else if (std::string(corruption) == "bitflip")
            bytes[bytes.size() / 2] ^= 0x04;
        else
            bytes.clear();
        ASSERT_TRUE(io::atomicWriteFile(newest, bytes).ok());

        RecoveryReport report;
        const std::string recovered = recoverAndFinish(dir, &report);
        EXPECT_TRUE(report.restored) << corruption;
        EXPECT_EQ(report.snapshotTick, 60) << corruption;
        EXPECT_EQ(report.rejectedSnapshots, 1u) << corruption;
        EXPECT_EQ(recovered, baselineDigest()) << corruption;
    }
}

TEST(KillPoints, CorruptJournalEpochStillRecoversBitwise)
{
    // Journaled decisions are verification-only — the policy RNG is
    // checkpointed, so dropped records are re-derived identically.
    // Every journal corruption class must therefore still converge to
    // the baseline bytes.
    for (const char *corruption : {"truncate", "bitflip", "zero"}) {
        const std::string dir = freshDir(
            std::string("adrias_kp_journalcorrupt_") + corruption);
        runUntilCrash(dir, {fault::CrashSite::BetweenTicks, 90});

        const std::string epoch = dir + "/journal-60.adj";
        ASSERT_TRUE(std::filesystem::exists(epoch)) << corruption;
        Result<std::string> intact = io::readFile(epoch);
        ASSERT_TRUE(intact.ok());
        std::string bytes = intact.value();
        // The replayed epoch must actually hold decisions, or the
        // corruption below would degenerate (guards seed changes).
        ASSERT_GT(bytes.size(), io::kRecordFileMagicSize + 16)
            << corruption;
        if (std::string(corruption) == "truncate")
            bytes.resize(bytes.size() - 3);
        else if (std::string(corruption) == "bitflip")
            bytes[io::kRecordFileMagicSize + 9] ^= 0x10;
        else
            bytes.clear();
        ASSERT_TRUE(io::atomicWriteFile(epoch, bytes).ok());

        RecoveryReport report;
        const std::string recovered = recoverAndFinish(dir, &report);
        EXPECT_TRUE(report.restored) << corruption;
        EXPECT_EQ(report.snapshotTick, 60) << corruption;
        EXPECT_GE(report.tornTails, 1u) << corruption;
        EXPECT_EQ(recovered, baselineDigest()) << corruption;
    }
}

TEST(KillPoints, SecondCrashDuringRecoveredRunStillConverges)
{
    // Crash, recover, crash again later, recover again: the invariant
    // holds across repeated deaths of the same run.
    const std::string dir = freshDir("adrias_kp_double");
    runUntilCrash(dir, {fault::CrashSite::BetweenTicks, 90});

    {
        RecoverableScenario second(scenarioConfig(), recoveryConfig(dir));
        scenario::RandomPlacement policy(kPolicySeed);
        second.attachSection(policy);
        fault::CrashInjector injector(
            {fault::CrashSite::BetweenTicks, 210});
        second.setCrashInjector(&injector);
        ASSERT_TRUE(second.start().ok());
        EXPECT_THROW((void)second.run(policy), fault::InjectedCrash);
        EXPECT_TRUE(injector.fired());
    }

    RecoveryReport report;
    const std::string recovered = recoverAndFinish(dir, &report);
    EXPECT_TRUE(report.restored);
    EXPECT_EQ(report.snapshotTick, 180);
    EXPECT_EQ(recovered, baselineDigest());
}

TEST(RecoverableScenario, RefusesMultiNodeTopologyAtStart)
{
    // The journal records one node's memory mode; replaying it on a
    // rack would "verify" decisions without their node, server or
    // link, so start() refuses before touching the directory.
    const std::string dir = freshDir("adrias_kp_rack");
    scenario::ScenarioConfig config = scenarioConfig();
    config.topology = "rack-2x2-cxl";
    RecoverableScenario rack(config, recoveryConfig(dir));
    const Result<RecoveryReport> started = rack.start();
    ASSERT_FALSE(started.ok());
    EXPECT_EQ(started.error().code, ErrorCode::Geometry);
    EXPECT_NE(started.error().message.find("'rack-2x2-cxl' has 2 nodes"),
              std::string::npos)
        << started.error().message;
    EXPECT_TRUE(std::filesystem::is_empty(dir));

    core::LeastLoadedRemotePolicy policy;
    EXPECT_THROW((void)rack.run(policy), std::logic_error);
}

} // namespace
} // namespace adrias::recovery
