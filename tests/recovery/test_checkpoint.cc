/**
 * @file
 * CheckpointManager and DecisionJournal unit tests: multi-section
 * snapshot round trips, retention pruning, corrupt-newest fallback,
 * structural rejection (tags, counts, version), journal encode/decode,
 * and torn-tail compaction of journal epochs.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/io/binary.hh"
#include "recovery/checkpoint.hh"
#include "recovery/journal.hh"

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

/** Minimal section: one evolving integer plus a fixed tag. */
class CounterSection : public io::Checkpointable
{
  public:
    explicit CounterSection(std::string tag_, std::int64_t value_ = 0)
        : tag(std::move(tag_)), value(value_)
    {
    }

    std::string checkpointTag() const override { return tag; }

    void saveState(io::BinaryWriter &out) const override
    {
        out.writeI64(value);
    }

    [[nodiscard]] Result<void>
    restoreState(io::BinaryReader &in) override
    {
        value = in.readI64();
        return in.status();
    }

    std::string tag;
    std::int64_t value;
};

CheckpointConfig
configFor(const std::string &dir, std::size_t keep = 2)
{
    CheckpointConfig config;
    config.dir = dir;
    config.intervalSec = 60;
    config.keep = keep;
    return config;
}

void
corrupt(const std::string &path, const std::string &bytes)
{
    ASSERT_TRUE(io::atomicWriteFile(path, bytes).ok());
}

TEST(CheckpointManager, RoundTripsMultipleSections)
{
    const std::string dir = freshDir("adrias_ckpt_roundtrip");
    CounterSection a("alpha", 7), b("beta", -3);

    CheckpointManager writerSide(configFor(dir));
    writerSide.attach(a);
    writerSide.attach(b);
    ASSERT_TRUE(writerSide.checkpointNow(120).ok());
    // The 60 s cadence restarts at the snapshot's tick.
    EXPECT_FALSE(writerSide.due(179));
    EXPECT_TRUE(writerSide.due(180));

    CounterSection a2("alpha"), b2("beta");
    CheckpointManager readerSide(configFor(dir));
    readerSide.attach(a2);
    readerSide.attach(b2);
    Result<RestoreOutcome> outcome = readerSide.restoreLatest();
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome.value().restored);
    EXPECT_EQ(outcome.value().snapshotTick, 120);
    EXPECT_EQ(outcome.value().rejectedSnapshots, 0u);
    EXPECT_EQ(a2.value, 7);
    EXPECT_EQ(b2.value, -3);
    EXPECT_FALSE(readerSide.due(179));
    EXPECT_TRUE(readerSide.due(180));
}

TEST(CheckpointManager, EmptyDirectoryIsFreshStartNotError)
{
    CounterSection a("alpha", 42);
    CheckpointManager manager(
        configFor(freshDir("adrias_ckpt_empty")));
    manager.attach(a);
    Result<RestoreOutcome> outcome = manager.restoreLatest();
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome.value().restored);
    EXPECT_EQ(a.value, 42); // untouched
}

TEST(CheckpointManager, PrunesBeyondRetentionWindow)
{
    const std::string dir = freshDir("adrias_ckpt_prune");
    CounterSection a("alpha");
    CheckpointManager manager(configFor(dir, /*keep=*/2));
    manager.attach(a);
    for (SimTime t : {60, 120, 180, 240})
        ASSERT_TRUE(manager.checkpointNow(t).ok());

    EXPECT_EQ(manager.snapshotTicks(),
              (std::vector<SimTime>{180, 240}));
    EXPECT_EQ(manager.oldestKeptTick(), 180);
}

TEST(CheckpointManager, DueFollowsInterval)
{
    CheckpointManager manager(
        configFor(freshDir("adrias_ckpt_due")));
    EXPECT_FALSE(manager.due(59));
    EXPECT_TRUE(manager.due(60));
    CounterSection a("alpha");
    manager.attach(a);
    ASSERT_TRUE(manager.checkpointNow(60).ok());
    EXPECT_FALSE(manager.due(119));
    EXPECT_TRUE(manager.due(120));
}

TEST(CheckpointManager, CorruptNewestFallsBackToOlder)
{
    const std::string dir = freshDir("adrias_ckpt_fallback");
    CounterSection a("alpha", 1);
    CheckpointManager writerSide(configFor(dir));
    writerSide.attach(a);
    ASSERT_TRUE(writerSide.checkpointNow(60).ok());
    a.value = 2;
    ASSERT_TRUE(writerSide.checkpointNow(120).ok());

    // Three corruption classes against the newest snapshot; every one
    // must fall back to snap-60 and restore value == 1.
    Result<std::string> intact =
        io::readFile(writerSide.snapshotPath(120));
    ASSERT_TRUE(intact.ok());
    const std::string truncated =
        intact.value().substr(0, intact.value().size() / 2);
    std::string flipped = intact.value();
    flipped[flipped.size() / 2] ^= 0x01;

    for (const std::string &bytes :
         {truncated, flipped, std::string()}) {
        corrupt(writerSide.snapshotPath(120), bytes);
        CounterSection restored("alpha", -1);
        CheckpointManager readerSide(configFor(dir));
        readerSide.attach(restored);
        Result<RestoreOutcome> outcome = readerSide.restoreLatest();
        ASSERT_TRUE(outcome.ok());
        EXPECT_TRUE(outcome.value().restored);
        EXPECT_EQ(outcome.value().snapshotTick, 60);
        EXPECT_EQ(outcome.value().rejectedSnapshots, 1u);
        EXPECT_EQ(restored.value, 1);
    }
}

TEST(CheckpointManager, TagMismatchRejectsSnapshot)
{
    const std::string dir = freshDir("adrias_ckpt_tags");
    CounterSection a("alpha", 5);
    CheckpointManager writerSide(configFor(dir));
    writerSide.attach(a);
    ASSERT_TRUE(writerSide.checkpointNow(60).ok());

    // The recovering process attaches a differently-tagged section —
    // an attach-order/config skew.  Tag checks run in the structural
    // phase, so nothing is half-restored: the snapshot is rejected
    // whole and recovery reports a fresh start.
    CounterSection mismatched("gamma", -1);
    CheckpointManager readerSide(configFor(dir));
    readerSide.attach(mismatched);
    Result<RestoreOutcome> outcome = readerSide.restoreLatest();
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome.value().restored);
    EXPECT_EQ(outcome.value().rejectedSnapshots, 1u);
    EXPECT_EQ(mismatched.value, -1);
}

TEST(CheckpointManager, SectionCountMismatchRejectsSnapshot)
{
    const std::string dir = freshDir("adrias_ckpt_count");
    CounterSection a("alpha", 5), b("beta", 6);
    CheckpointManager writerSide(configFor(dir));
    writerSide.attach(a);
    writerSide.attach(b);
    ASSERT_TRUE(writerSide.checkpointNow(60).ok());

    CounterSection only("alpha", -1);
    CheckpointManager readerSide(configFor(dir));
    readerSide.attach(only);
    Result<RestoreOutcome> outcome = readerSide.restoreLatest();
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome.value().restored);
    EXPECT_EQ(outcome.value().rejectedSnapshots, 1u);
    EXPECT_EQ(only.value, -1);
}

TEST(CheckpointManager, RefusesVersionThreeSnapshotByName)
{
    // A v3 file is well framed, so only the manifest version refuses
    // it, and the refusal names the version it found.
    const std::string dir = freshDir("adrias_ckpt_v3");
    CheckpointManager manager(configFor(dir));
    CounterSection section("alpha", -1);
    manager.attach(section);

    std::string image = io::beginRecordFileImage();
    io::BinaryWriter manifest;
    manifest.writeString("adrias-checkpoint-v3");
    manifest.writeI64(60);
    manifest.writeU64(1);
    io::appendFramedRecord(image, manifest.data());
    io::BinaryWriter payload;
    payload.writeI64(7);
    io::BinaryWriter record;
    record.writeString("alpha");
    record.writeString(payload.data());
    io::appendFramedRecord(image, record.data());
    ASSERT_TRUE(io::atomicWriteFile(manager.snapshotPath(60), image).ok());

    ::testing::internal::CaptureStderr();
    Result<RestoreOutcome> outcome = manager.restoreLatest();
    const std::string log = ::testing::internal::GetCapturedStderr();
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome.value().restored);
    EXPECT_EQ(outcome.value().rejectedSnapshots, 1u);
    EXPECT_EQ(section.value, -1);
    EXPECT_NE(log.find("[bad-header]"), std::string::npos) << log;
    EXPECT_NE(log.find("unknown version 'adrias-checkpoint-v3'"),
              std::string::npos)
        << log;
}

/** Section whose restoreState fails a configurable number of times —
 *  models version skew detected only inside the payload. */
class FussySection : public CounterSection
{
  public:
    FussySection(std::string tag_, int failures)
        : CounterSection(std::move(tag_)), failuresRemaining(failures)
    {
    }

    [[nodiscard]] Result<void>
    restoreState(io::BinaryReader &in) override
    {
        if (failuresRemaining > 0) {
            --failuresRemaining;
            (void)in.readI64();
            return makeError(ErrorCode::BadHeader,
                             "simulated payload version skew");
        }
        return CounterSection::restoreState(in);
    }

    int failuresRemaining;
};

TEST(CheckpointManager, SectionRestoreFailureFallsBackAndRerestoresAll)
{
    const std::string dir = freshDir("adrias_ckpt_phase2");
    CounterSection a("alpha", 10);
    CounterSection b("beta", 20);
    CheckpointManager writerSide(configFor(dir));
    writerSide.attach(a);
    writerSide.attach(b);
    ASSERT_TRUE(writerSide.checkpointNow(60).ok());
    a.value = 11;
    b.value = 21;
    ASSERT_TRUE(writerSide.checkpointNow(120).ok());

    // The newest snapshot passes structural checks but its second
    // section fails to restore (version skew).  The fallback must
    // re-restore EVERY section from snap-60 — including alpha, which
    // had already been overwritten with snap-120 state.
    CounterSection a2("alpha", -1);
    FussySection b2("beta", /*failures=*/1);
    CheckpointManager readerSide(configFor(dir));
    readerSide.attach(a2);
    readerSide.attach(b2);
    Result<RestoreOutcome> outcome = readerSide.restoreLatest();
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome.value().restored);
    EXPECT_EQ(outcome.value().snapshotTick, 60);
    EXPECT_EQ(outcome.value().rejectedSnapshots, 1u);
    EXPECT_EQ(a2.value, 10);
    EXPECT_EQ(b2.value, 20);
}

TEST(CheckpointManager, AllSectionRestoresFailingIsHardError)
{
    const std::string dir = freshDir("adrias_ckpt_phase2_fatal");
    CounterSection a("alpha", 10);
    CheckpointManager writerSide(configFor(dir));
    writerSide.attach(a);
    ASSERT_TRUE(writerSide.checkpointNow(60).ok());

    // State was touched but no candidate restored whole: the caller
    // must NOT continue on partial state, so this is an error — unlike
    // structural rejections, which fall through to a fresh start.
    FussySection broken("alpha", /*failures=*/99);
    CheckpointManager readerSide(configFor(dir));
    readerSide.attach(broken);
    EXPECT_FALSE(readerSide.restoreLatest().ok());
}

TEST(CheckpointManager, RemoveOrphanTempFiles)
{
    const std::string dir = freshDir("adrias_ckpt_orphans");
    CounterSection a("alpha");
    CheckpointManager manager(configFor(dir));
    manager.attach(a);
    ASSERT_TRUE(manager.checkpointNow(60).ok());
    corrupt(dir + "/snap-120.adck.tmp", "torn");

    manager.removeOrphanTempFiles();
    EXPECT_FALSE(std::filesystem::exists(dir + "/snap-120.adck.tmp"));
    EXPECT_TRUE(
        std::filesystem::exists(manager.snapshotPath(60)));
}

TEST(CheckpointManager, DuplicateTagPanicsAtAttach)
{
    CheckpointManager manager(
        configFor(freshDir("adrias_ckpt_dup")));
    CounterSection a("alpha"), clone("alpha");
    manager.attach(a);
    EXPECT_THROW(manager.attach(clone), std::logic_error);
}

TEST(DecisionJournal, EncodeDecodeRoundTrip)
{
    scenario::PlacementDecision decision;
    decision.tick = 417;
    decision.id = 12;
    decision.specName = "spark-als";
    decision.mode = MemoryMode::Remote;

    Result<scenario::PlacementDecision> decoded =
        DecisionJournal::decode(DecisionJournal::encode(decision));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), decision);
}

TEST(DecisionJournal, DecodeRejectsCorruptPayloads)
{
    scenario::PlacementDecision decision;
    decision.specName = "memcached";
    const std::string payload = DecisionJournal::encode(decision);

    // Truncated payload.
    EXPECT_FALSE(DecisionJournal::decode(
                     std::string_view(payload).substr(
                         0, payload.size() - 1))
                     .ok());
    // Out-of-range memory mode.
    std::string badMode = payload;
    badMode.back() = 7;
    Result<scenario::PlacementDecision> decoded =
        DecisionJournal::decode(badMode);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::BadNumber);
}

TEST(DecisionJournal, AppendThenLoadRoundTrips)
{
    const std::string path =
        freshDir("adrias_journal_roundtrip") + "/journal-0.adj";

    DecisionJournal journal;
    ASSERT_TRUE(journal.open(path).ok());
    for (int i = 0; i < 5; ++i) {
        scenario::PlacementDecision decision;
        decision.tick = i;
        decision.id = static_cast<DeploymentId>(100 + i);
        decision.specName = "app-" + std::to_string(i);
        decision.mode = (i % 2) != 0 ? MemoryMode::Remote
                                     : MemoryMode::Local;
        journal.onDecision(decision);
    }
    journal.close();

    Result<DecisionJournal::LoadResult> loaded =
        DecisionJournal::loadAndCompact(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_FALSE(loaded.value().tornTail);
    ASSERT_EQ(loaded.value().decisions.size(), 5u);
    EXPECT_EQ(loaded.value().decisions[3].specName, "app-3");
    EXPECT_EQ(loaded.value().decisions[3].mode, MemoryMode::Remote);
}

TEST(DecisionJournal, LoadCompactsTornTailAndReopensCleanly)
{
    const std::string path =
        freshDir("adrias_journal_torn") + "/journal-0.adj";

    DecisionJournal journal;
    ASSERT_TRUE(journal.open(path).ok());
    scenario::PlacementDecision decision;
    decision.tick = 9;
    decision.specName = "survivor";
    journal.onDecision(decision);
    journal.close();

    // Tear the tail: append half a record's worth of garbage.
    Result<std::string> intact = io::readFile(path);
    ASSERT_TRUE(intact.ok());
    ASSERT_TRUE(
        io::atomicWriteFile(path, intact.value() + "\x05\x00").ok());

    Result<DecisionJournal::LoadResult> loaded =
        DecisionJournal::loadAndCompact(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded.value().tornTail);
    EXPECT_GT(loaded.value().droppedBytes, 0u);
    ASSERT_EQ(loaded.value().decisions.size(), 1u);
    EXPECT_EQ(loaded.value().decisions[0].specName, "survivor");

    // Compaction rewrote the file: it now ends on a frame boundary, so
    // appending in resume mode yields a fully clean epoch.
    DecisionJournal resumed;
    ASSERT_TRUE(resumed.open(path, /*append=*/true).ok());
    decision.tick = 10;
    decision.specName = "appended-after-compaction";
    resumed.onDecision(decision);
    resumed.close();

    Result<DecisionJournal::LoadResult> reloaded =
        DecisionJournal::loadAndCompact(path);
    ASSERT_TRUE(reloaded.ok());
    EXPECT_FALSE(reloaded.value().tornTail);
    ASSERT_EQ(reloaded.value().decisions.size(), 2u);
    EXPECT_EQ(reloaded.value().decisions[1].specName,
              "appended-after-compaction");
}

TEST(DecisionJournal, ZeroLengthEpochCompactsToEmpty)
{
    const std::string path =
        freshDir("adrias_journal_zero") + "/journal-0.adj";
    ASSERT_TRUE(io::atomicWriteFile(path, "").ok());

    // A kill between epoch-file creation and the header flush leaves a
    // zero-length file; recovery treats it as an empty epoch.
    Result<DecisionJournal::LoadResult> loaded =
        DecisionJournal::loadAndCompact(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded.value().tornTail);
    EXPECT_TRUE(loaded.value().decisions.empty());

    // The rewrite installed a proper header: resumable.
    DecisionJournal resumed;
    EXPECT_TRUE(resumed.open(path, /*append=*/true).ok());
    resumed.close();
}

TEST(DecisionJournal, BadMagicEpochIsHardError)
{
    const std::string path =
        freshDir("adrias_journal_magic") + "/journal-0.adj";
    ASSERT_TRUE(io::atomicWriteFile(path, "NOTMAGIC rest").ok());
    Result<DecisionJournal::LoadResult> loaded =
        DecisionJournal::loadAndCompact(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::BadHeader);
}

TEST(CheckpointManager, RejectsInvalidConfig)
{
    CheckpointConfig bad;
    bad.dir = "";
    EXPECT_THROW(CheckpointManager{bad}, std::runtime_error);

    bad = configFor("somewhere");
    bad.intervalSec = 0;
    EXPECT_THROW(CheckpointManager{bad}, std::runtime_error);

    bad = configFor("somewhere");
    bad.keep = 0;
    EXPECT_THROW(CheckpointManager{bad}, std::runtime_error);
}

} // namespace
} // namespace adrias::recovery
