/**
 * @file
 * Self-tests for the cross-file semantic analyzer (tools/analyze):
 * every pass is proven against a deliberately violating fixture and a
 * clean counterpart, the waiver macros and NOLINT escapes are shown
 * to suppress, cross-file declaration/body merging is exercised, two
 * seeded faults (deleting one saveState line from the real
 * ScenarioEngine; removing the one bench call of obs::compiledIn) are
 * demonstrably caught, and the real tree must analyze clean.
 *
 * Violating code lives under tools/analyze/fixtures/ or in string
 * literals — never compiled, only parsed.
 */

#include "analyze/analyze.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace
{

using adrias::analyze::analyzeFiles;
using adrias::analyze::analyzeProgram;
using adrias::analyze::analyzeTree;
using adrias::analyze::Finding;
using adrias::analyze::readTree;
using adrias::analyze::SourceFile;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

SourceFile
fixture(const std::string &name)
{
    return {name,
            readFile(std::string(ADRIAS_ANALYZE_FIXTURE_DIR) + "/" + name)};
}

/** Findings of one pass, as "detail" strings. */
std::vector<std::string>
detailsOf(const std::vector<Finding> &findings, const std::string &pass)
{
    std::vector<std::string> details;
    for (const auto &finding : findings) {
        if (finding.pass == pass)
            details.push_back(finding.detail);
    }
    return details;
}

bool
anyMentions(const std::vector<std::string> &details,
            const std::string &needle)
{
    return std::any_of(details.begin(), details.end(),
                       [&](const std::string &detail) {
                           return detail.find(needle) != std::string::npos;
                       });
}

TEST(AnalyzePasses, EveryPassHasMetadata)
{
    const auto &passes = adrias::analyze::passes();
    ASSERT_EQ(passes.size(), 4u);
    std::vector<std::string> ids;
    for (const auto &pass : passes) {
        EXPECT_FALSE(pass.description.empty()) << pass.id;
        ids.push_back(pass.id);
    }
    for (const char *expected : {"checkpoint-coverage", "lock-discipline",
                                 "determinism-hazard", "unused-api"}) {
        EXPECT_NE(std::find(ids.begin(), ids.end(), expected), ids.end())
            << expected;
    }
}

TEST(CheckpointCoverage, BadFixtureFlagsExactlyTheForgottenMembers)
{
    // Header and implementation as separate files: the pass must merge
    // the out-of-line bodies with the header's class.
    const auto findings = analyzeFiles(
        {fixture("bad_checkpoint.hh"), fixture("bad_checkpoint_impl.cc")});
    const auto details = detailsOf(findings, "checkpoint-coverage");
    ASSERT_EQ(details.size(), 2u) << adrias::analyze::formatFinding(
        findings.empty() ? Finding{} : findings.front());

    // `ema` is saved but not restored; `window` appears on neither side.
    EXPECT_TRUE(anyMentions(details, "'ema'"));
    EXPECT_TRUE(anyMentions(details, "restoreState"));
    EXPECT_TRUE(anyMentions(details, "'window'"));

    // Covered / delegated / waived / auto-exempt members stay silent.
    EXPECT_FALSE(anyMentions(details, "'samples'"));
    EXPECT_FALSE(anyMentions(details, "'cfg'"));
    EXPECT_FALSE(anyMentions(details, "'mu'"));
    EXPECT_FALSE(anyMentions(details, "'instances'"));

    // Findings anchor on the header's member declarations.
    for (const auto &finding : findings)
        EXPECT_EQ(finding.file, "bad_checkpoint.hh");
}

TEST(CheckpointCoverage, GoodFixtureIsClean)
{
    const auto findings = analyzeFiles({fixture("good_checkpoint.hh")});
    EXPECT_TRUE(findings.empty())
        << adrias::analyze::formatFinding(findings.front());
}

TEST(LockDiscipline, BadFixtureFlagsTheUnannotatedMember)
{
    const auto findings = analyzeFiles({fixture("bad_lock.hh")});
    const auto details = detailsOf(findings, "lock-discipline");
    ASSERT_EQ(details.size(), 1u);
    EXPECT_TRUE(anyMentions(details, "'rate'"));
    // Guarded, atomic, const and the mutex itself stay silent.
    EXPECT_FALSE(anyMentions(details, "'hits'"));
    EXPECT_FALSE(anyMentions(details, "'warm'"));
    EXPECT_FALSE(anyMentions(details, "'capacity'"));
    EXPECT_FALSE(anyMentions(details, "'mu'"));
}

TEST(LockDiscipline, GoodFixtureIsClean)
{
    const auto findings = analyzeFiles({fixture("good_lock.hh")});
    EXPECT_TRUE(findings.empty())
        << adrias::analyze::formatFinding(findings.front());
}

TEST(DeterminismHazard, BadFixtureFlagsAllFourHazards)
{
    const auto findings = analyzeFiles({fixture("bad_determinism.cc")});
    const auto details = detailsOf(findings, "determinism-hazard");
    ASSERT_EQ(details.size(), 4u);
    EXPECT_TRUE(anyMentions(details, "'index'"));
    EXPECT_TRUE(anyMentions(details, "'edges'"));
    EXPECT_TRUE(anyMentions(details, "'total'"));
    // The same accumulation through parallelForEach.
    EXPECT_TRUE(anyMentions(details, "'energy'"));
}

TEST(DeterminismHazard, GoodFixtureIsClean)
{
    const auto findings = analyzeFiles({fixture("good_determinism.cc")});
    EXPECT_TRUE(findings.empty())
        << adrias::analyze::formatFinding(findings.front());
}

/** Every finding, one per line, for assertion messages. */
std::string
report(const std::vector<Finding> &findings)
{
    std::string text;
    for (const auto &finding : findings)
        text += adrias::analyze::formatFinding(finding) + "\n";
    return text;
}

TEST(UnusedApi, BadFixtureFlagsTheDeadEntities)
{
    const auto findings = analyzeProgram({fixture("bad_unused_api.hh")},
                                         {fixture("unused_api_user.cc")});
    const auto details = detailsOf(findings, "unused-api");
    ASSERT_EQ(details.size(), 5u) << report(findings);
    EXPECT_TRUE(anyMentions(details, "'fixture::Meter::reset'"));
    EXPECT_TRUE(anyMentions(details, "class 'Gauge'"));
    EXPECT_TRUE(anyMentions(details, "'clamp01'"));
    EXPECT_TRUE(anyMentions(details, "'countdown'")); // self-calls only
    EXPECT_TRUE(anyMentions(details, "'fixture::Meter::try_lock' gives "
                                     "no reason"));

    // What the user file calls stays silent, defined or not.
    EXPECT_FALSE(anyMentions(details, "::record'"));
    EXPECT_FALSE(anyMentions(details, "::mean'"));
    EXPECT_FALSE(anyMentions(details, "'scale'"));
}

TEST(UnusedApi, GoodFixtureIsClean)
{
    const auto findings = analyzeProgram({fixture("good_unused_api.hh")},
                                         {fixture("unused_api_user.cc")});
    EXPECT_TRUE(findings.empty()) << report(findings);
}

TEST(UnusedApi, FileSubsetsDoNotRunIt)
{
    // A file subset cannot know what the rest of the program uses.
    EXPECT_TRUE(analyzeFiles({fixture("bad_unused_api.hh")}).empty());
}

TEST(Suppressions, NolintWithThePassIdSuppresses)
{
    const std::string without = R"(
namespace adrias::demo
{
class Cache
{
    mutable Mutex mu;
    std::size_t hits ADRIAS_GUARDED_BY(mu) = 0;
    double rate = 0.0;
};
} // namespace adrias::demo
)";
    const auto flagged = analyzeFiles({{"demo.hh", without}});
    ASSERT_EQ(flagged.size(), 1u);
    EXPECT_EQ(flagged.front().pass, "lock-discipline");

    // The exact pass id suppresses the finding...
    std::string with = without;
    const std::string marker = "double rate = 0.0;";
    with.replace(with.find(marker), marker.size(),
                 "double rate = 0.0; // NOLINT(lock-discipline)");
    EXPECT_TRUE(analyzeFiles({{"demo.hh", with}}).empty());

    // ...a different rule name does not.
    std::string wrong = without;
    wrong.replace(wrong.find(marker), marker.size(),
                  "double rate = 0.0; // NOLINT(raw-rand)");
    EXPECT_EQ(analyzeFiles({{"demo.hh", wrong}}).size(), 1u);
}

TEST(Suppressions, WaiverMacrosSuppress)
{
    // One checkpointable class, one forgotten member.
    const std::string without = R"(
namespace adrias::demo
{
class Meter
{
  public:
    void saveState(io::BinaryWriter &out) const { out.writeU64(ticks); }
    Result<void> restoreState(io::BinaryReader &in)
    {
        ticks = in.readU64();
        return {};
    }

  private:
    std::uint64_t ticks = 0;
    double drift = 0.0;
};
} // namespace adrias::demo
)";
    const auto flagged = analyzeFiles({{"meter.hh", without}});
    ASSERT_EQ(flagged.size(), 1u);
    EXPECT_EQ(flagged.front().pass, "checkpoint-coverage");
    EXPECT_NE(flagged.front().detail.find("'drift'"), std::string::npos);

    std::string with = without;
    const std::string marker = "double drift = 0.0;";
    with.replace(with.find(marker), marker.size(),
                 "double drift ADRIAS_NOT_CHECKPOINTED(\"derived\") = 0.0;");
    EXPECT_TRUE(analyzeFiles({{"meter.hh", with}}).empty());
}

TEST(SeededFault, DeletingOneSaveStateLineIsCaught)
{
    const std::string root(ADRIAS_ANALYZE_REPO_ROOT);
    const SourceFile header{"src/scenario/engine.hh",
                            readFile(root + "/src/scenario/engine.hh")};
    SourceFile impl{"src/scenario/engine.cc",
                    readFile(root + "/src/scenario/engine.cc")};

    // Intact, the engine pair is clean.
    EXPECT_TRUE(analyzeFiles({header, impl}).empty());

    // Delete the one line serializing `nextId` — the forgotten-field
    // regression this pass exists to catch.
    const std::string line = "out.writeU64(nextId);";
    const std::size_t at = impl.content.find(line);
    ASSERT_NE(at, std::string::npos)
        << "seeded-fault anchor line moved; update this test";
    impl.content.erase(at, line.size());

    const auto findings = analyzeFiles({header, impl});
    const auto details = detailsOf(findings, "checkpoint-coverage");
    ASSERT_FALSE(details.empty());
    EXPECT_TRUE(anyMentions(details, "'nextId'"));
    EXPECT_TRUE(anyMentions(details, "saveState"));
}

TEST(SeededFault, RemovingTheOnlyBenchCallOfCompiledInIsCaught)
{
    auto tree = readTree(ADRIAS_ANALYZE_REPO_ROOT);
    ASSERT_TRUE(tree.unreadable.empty()) << report(tree.unreadable);

    // Intact, the micro_obs_overhead bench keeps obs::compiledIn used.
    const auto intact = analyzeProgram(tree.src, tree.users);
    EXPECT_FALSE(anyMentions(detailsOf(intact, "unused-api"),
                             "'compiledIn'"));

    // Replace that one call in an in-memory copy of the bench: no other
    // user remains, and tests do not count.
    const auto bench = std::find_if(
        tree.users.begin(), tree.users.end(), [](const SourceFile &file) {
            return file.label == "bench/micro_obs_overhead.cc";
        });
    ASSERT_NE(bench, tree.users.end());
    const std::string call = "obs::compiledIn()";
    const std::size_t at = bench->content.find(call);
    ASSERT_NE(at, std::string::npos)
        << "seeded-fault anchor call moved; update this test";
    bench->content.replace(at, call.size(), "false");

    const auto findings = analyzeProgram(tree.src, tree.users);
    EXPECT_TRUE(
        anyMentions(detailsOf(findings, "unused-api"), "'compiledIn'"))
        << report(findings);
}

TEST(AnalyzeTree, RealTreeIsClean)
{
    const auto findings = analyzeTree(ADRIAS_ANALYZE_REPO_ROOT);
    EXPECT_TRUE(findings.empty()) << report(findings);
}

} // namespace
