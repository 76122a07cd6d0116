/**
 * @file
 * Self-tests for the project lint (tools/lint): every rule is proven
 * against a deliberately violating fixture, the NOLINT escapes
 * (single- and multi-rule lists, NOLINTNEXTLINE, NOLINTBEGIN/END
 * regions) and scope boundaries are exercised, and the real tree must
 * scan clean.
 *
 * All violating code lives in string literals or under
 * tools/lint/fixtures/ — the scanner strips string literals before
 * matching, so this file itself stays lint-clean.
 */

#include "lint/lint.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace
{

using adrias::lint::Finding;
using adrias::lint::lintContent;
using adrias::lint::lintFile;
using adrias::lint::lintTree;

std::string
fixture(const std::string &name)
{
    return std::string(ADRIAS_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<std::size_t>
linesOf(const std::vector<Finding> &findings, const std::string &rule)
{
    std::vector<std::size_t> lines;
    for (const auto &f : findings) {
        if (f.rule == rule)
            lines.push_back(f.line);
    }
    return lines;
}

TEST(LintRules, EveryRuleHasMetadata)
{
    const auto &rules = adrias::lint::rules();
    ASSERT_EQ(rules.size(), 10u);
    std::vector<std::string> ids;
    for (const auto &rule : rules) {
        EXPECT_FALSE(rule.description.empty()) << rule.id;
        ids.push_back(rule.id);
    }
    for (const char *expected :
         {"raw-rand", "wall-clock", "unordered-container",
          "nodiscard-result", "float-equal", "iostream-include",
          "raw-ofstream", "raw-thread", "raw-intrinsics",
          "isa-clones"}) {
        EXPECT_NE(std::find(ids.begin(), ids.end(), expected),
                  ids.end())
            << expected;
    }
}

TEST(LintRules, RawRandFixture)
{
    const auto findings =
        lintFile(fixture("bad_rand.cc"), "src/core/bad_rand.cc");
    EXPECT_EQ(linesOf(findings, "raw-rand"),
              (std::vector<std::size_t>{3, 8, 9, 10}));
    // The NOLINT(raw-rand) on fixture line 21 must suppress it.
    for (const auto &f : findings)
        EXPECT_NE(f.line, 21u);
}

TEST(LintRules, WallClockFixture)
{
    const auto findings = lintFile(fixture("bad_wallclock.cc"),
                                   "src/telemetry/bad_wallclock.cc");
    EXPECT_EQ(linesOf(findings, "wall-clock"),
              (std::vector<std::size_t>{8, 10}));
}

TEST(LintRules, UnorderedFixture)
{
    const auto findings = lintFile(fixture("bad_unordered.cc"),
                                   "src/testbed/bad_unordered.cc");
    EXPECT_EQ(linesOf(findings, "unordered-container"),
              (std::vector<std::size_t>{4, 5, 10}));
}

TEST(LintRules, NodiscardFixture)
{
    const auto findings = lintFile(fixture("bad_nodiscard.hh"),
                                   "src/common/bad_nodiscard.hh");
    EXPECT_EQ(linesOf(findings, "nodiscard-result"),
              (std::vector<std::size_t>{10, 12}));
}

TEST(LintRules, FloatEqualFixture)
{
    const auto findings = lintFile(fixture("bad_float_eq.cc"),
                                   "src/stats/bad_float_eq.cc");
    EXPECT_EQ(linesOf(findings, "float-equal"),
              (std::vector<std::size_t>{7, 8, 9}));
}

TEST(LintRules, IostreamFixture)
{
    const auto findings = lintFile(fixture("bad_iostream.cc"),
                                   "src/core/bad_iostream.cc");
    EXPECT_EQ(linesOf(findings, "iostream-include"),
              (std::vector<std::size_t>{3}));
}

TEST(LintRules, RawOfstreamFixture)
{
    const auto findings = lintFile(fixture("bad_ofstream.cc"),
                                   "src/scenario/bad_ofstream.cc");
    EXPECT_EQ(linesOf(findings, "raw-ofstream"),
              (std::vector<std::size_t>{7, 14}));
    // The NOLINTNEXTLINE on fixture line 20 must suppress line 21.
    for (const auto &f : findings)
        EXPECT_NE(f.line, 21u);
}

TEST(LintRules, RawThreadFixture)
{
    const auto findings = lintFile(fixture("bad_thread.cc"),
                                   "src/scenario/bad_thread.cc");
    EXPECT_EQ(linesOf(findings, "raw-thread"),
              (std::vector<std::size_t>{3, 4, 9, 10}));
    // The NOLINTNEXTLINE(raw-thread) on fixture line 17 must
    // suppress line 18.
    for (const auto &f : findings)
        EXPECT_NE(f.line, 18u);
}

TEST(LintRules, RawIntrinsicsFixture)
{
    const auto findings = lintFile(fixture("bad_intrinsics.cc"),
                                   "src/ml/bad_intrinsics.cc");
    EXPECT_EQ(linesOf(findings, "raw-intrinsics"),
              (std::vector<std::size_t>{3, 8, 9, 10}));
    // The NOLINTNEXTLINE(raw-intrinsics) on fixture line 11 must
    // suppress line 12.
    for (const auto &f : findings)
        EXPECT_NE(f.line, 12u);
}

TEST(LintScopes, SimdFilesAreNotExempt)
{
    // No file may hold raw intrinsics, src/ml/simd* included.
    for (const char *label :
         {"src/ml/simd_kernels.cc", "src/ml/simd.hh",
          "src/ml/simd.cc"}) {
        const auto findings =
            lintFile(fixture("bad_intrinsics.cc"), label);
        EXPECT_EQ(linesOf(findings, "raw-intrinsics"),
                  (std::vector<std::size_t>{3, 8, 9, 10}))
            << label;
    }
}

TEST(LintScopes, RawIntrinsicsEnforcedInTestsAndBench)
{
    // Unlike raw-thread, the intrinsics rule covers tests and bench
    // too.
    for (const char *label :
         {"tests/ml/bad_intrinsics.cc", "bench/bad_intrinsics.cc",
          "src/serving/bad_intrinsics.cc"}) {
        const auto findings =
            lintFile(fixture("bad_intrinsics.cc"), label);
        EXPECT_FALSE(linesOf(findings, "raw-intrinsics").empty())
            << label;
    }
    // tools/ stays outside the scope (the lint tool itself names the
    // banned identifiers).
    EXPECT_TRUE(linesOf(lintFile(fixture("bad_intrinsics.cc"),
                                 "tools/bad_intrinsics.cc"),
                        "raw-intrinsics")
                    .empty());
}

TEST(LintRules, IsaClonesFixture)
{
    // Outside src/ml every attribute and pragma spelling is flagged
    // (5, 12-15); the variable named target (17) is not an attribute,
    // and the NOLINTNEXTLINE(isa-clones) on line 18 waives line 19.
    EXPECT_EQ(linesOf(lintFile(fixture("bad_isa_clones.cc"),
                               "src/core/bad_isa_clones.cc"),
                      "isa-clones"),
              (std::vector<std::size_t>{5, 12, 13, 14, 15}));
}

TEST(LintScopes, IsaClonesScalarKernelsNameOnlyAvx2AndDefault)
{
    const std::string bad = fixture("bad_isa_clones.cc");
    // The cloned kernels and ml/simd.hh may clone for "avx2" and
    // "default", but not for fma (12, 15) or an arch (13).
    for (const char *label :
         {"src/ml/matrix.cc", "src/ml/lstm.cc", "src/ml/simd.hh"})
        EXPECT_EQ(linesOf(lintFile(bad, label), "isa-clones"),
                  (std::vector<std::size_t>{12, 13, 15}))
            << label;
    // Every other ml/simd* file is flagged like the rest of src.
    for (const char *label : {"src/ml/simd_kernels.cc", "src/ml/simd.cc"})
        EXPECT_EQ(linesOf(lintFile(bad, label), "isa-clones"),
                  (std::vector<std::size_t>{5, 12, 13, 14, 15}))
            << label;
    // Tests and benches are out of scope.
    EXPECT_TRUE(
        linesOf(lintFile(bad, "tests/ml/bad_isa_clones.cc"), "isa-clones")
            .empty());
}

TEST(LintScopes, ThreadPoolImplementationIsExempt)
{
    // The deterministic pool is the one sanctioned std::thread user.
    for (const char *label :
         {"src/common/threadpool.cc", "src/common/threadpool.hh"}) {
        const auto findings = lintFile(fixture("bad_thread.cc"), label);
        EXPECT_TRUE(linesOf(findings, "raw-thread").empty()) << label;
    }
}

TEST(LintScopes, RawThreadNotEnforcedOutsideSrc)
{
    for (const char *label :
         {"tests/common/bad_thread.cc", "bench/bad_thread.cc",
          "tools/bad_thread.cc"}) {
        const auto findings = lintFile(fixture("bad_thread.cc"), label);
        EXPECT_TRUE(linesOf(findings, "raw-thread").empty()) << label;
    }
}

TEST(LintScopes, RawOfstreamNotEnforcedOutsideSrc)
{
    for (const char *label :
         {"tests/common/bad_ofstream.cc", "bench/bad_ofstream.cc",
          "tools/bad_ofstream.cc"}) {
        const auto findings =
            lintFile(fixture("bad_ofstream.cc"), label);
        EXPECT_TRUE(linesOf(findings, "raw-ofstream").empty())
            << label;
    }
}

TEST(LintScopes, DurableFileLayerUsesEscapes)
{
    // The one sanctioned writer carries explicit NOLINT escapes
    // rather than a scope carve-out, so new raw streams inside
    // common/io still get flagged.
    const std::string code = "std::" + std::string("ofstream") +
                             " out(path);\n";
    EXPECT_EQ(lintContent("src/common/io/new_writer.cc", code).size(),
              1u);
}

TEST(LintRules, CleanFixtureHasNoFindings)
{
    const auto findings =
        lintFile(fixture("clean.cc"), "src/core/clean.cc");
    for (const auto &f : findings)
        ADD_FAILURE() << adrias::lint::formatFinding(f);
}

TEST(LintEscapes, BlanketNolintSuppresses)
{
    const std::string code = "int x = std::" + std::string("rand") +
                             "(); // NOLINT\n";
    EXPECT_TRUE(lintContent("src/core/x.cc", code).empty());
}

TEST(LintEscapes, NolintForOtherRuleDoesNotSuppress)
{
    const std::string code = "int x = std::" + std::string("rand") +
                             "(); // NOLINT(float-equal)\n";
    EXPECT_EQ(lintContent("src/core/x.cc", code).size(), 1u);
}

TEST(LintEscapes, MultiRuleListSuppressesEveryNamedRule)
{
    const std::string code = "int x = std::" + std::string("rand") +
                             "(); // NOLINT(raw-rand,float-equal)\n";
    EXPECT_TRUE(lintContent("src/core/x.cc", code).empty());
}

TEST(LintEscapes, RuleNamesMatchExactlyNotBySubstring)
{
    // "rand" is not "raw-rand" — no suppression.
    const std::string code = "int x = std::" + std::string("rand") +
                             "(); // NOLINT(rand)\n";
    EXPECT_EQ(lintContent("src/core/x.cc", code).size(), 1u);
}

TEST(LintEscapes, BeginEndRegionSuppressesOnlyItsLines)
{
    const std::string rand_call = "int a = std::" +
                                  std::string("rand") + "();\n";
    const std::string code = "// NOLINTBEGIN(raw-rand)\n" + rand_call +
                             "// NOLINTEND(raw-rand)\n" + rand_call;
    const auto findings = lintContent("src/core/x.cc", code);
    EXPECT_EQ(linesOf(findings, "raw-rand"),
              (std::vector<std::size_t>{4}));
}

TEST(LintEscapes, BeginEndRegionForOtherRuleDoesNotSuppress)
{
    const std::string code = "// NOLINTBEGIN(float-equal)\n"
                             "int a = std::" +
                             std::string("rand") +
                             "();\n"
                             "// NOLINTEND(float-equal)\n";
    EXPECT_EQ(lintContent("src/core/x.cc", code).size(), 1u);
}

TEST(LintEscapes, UnmatchedBeginExtendsToEndOfFile)
{
    const std::string code = "// NOLINTBEGIN(raw-rand)\n"
                             "int a = std::" +
                             std::string("rand") +
                             "();\n"
                             "int b = std::" +
                             std::string("rand") + "();\n";
    EXPECT_TRUE(lintContent("src/core/x.cc", code).empty());
}

TEST(LintEscapes, BlanketBeginEndSuppressesEveryRule)
{
    const std::string code = "// NOLINTBEGIN\n"
                             "int a = std::" +
                             std::string("rand") +
                             "();\n"
                             "#include <iostream>\n"
                             "// NOLINTEND\n";
    EXPECT_TRUE(lintContent("src/core/x.cc", code).empty());
}

TEST(LintRules, NodiscardCoversAnonymousNamespaceCcHelpers)
{
    const std::string code = "namespace\n"
                             "{\n"
                             "Result<int>\n"
                             "parseHeader(const std::string &text)\n"
                             "{\n"
                             "    return {};\n"
                             "}\n"
                             "} // namespace\n";
    const auto findings = lintContent("src/scenario/x.cc", code);
    EXPECT_EQ(linesOf(findings, "nodiscard-result"),
              (std::vector<std::size_t>{3}));
}

TEST(LintRules, NodiscardCoversStaticCcHelpers)
{
    const std::string code = "static Result<void> flushAll();\n";
    const auto findings = lintContent("src/scenario/x.cc", code);
    EXPECT_EQ(linesOf(findings, "nodiscard-result"),
              (std::vector<std::size_t>{1}));
}

TEST(LintRules, NodiscardSkipsAnnotatedAndExternCcDeclarations)
{
    // Already annotated: clean.
    const std::string annotated = "namespace\n"
                                  "{\n"
                                  "[[nodiscard]] Result<int>\n"
                                  "parseHeader(const std::string &text)\n"
                                  "{\n"
                                  "    return {};\n"
                                  "}\n"
                                  "} // namespace\n";
    EXPECT_TRUE(lintContent("src/scenario/x.cc", annotated).empty());

    // Extern-linkage definitions in a .cc belong to a header
    // declaration — the header side of the rule owns those.
    const std::string external = "Result<int>\n"
                                 "adrias::parseHeader(const std::string "
                                 "&text)\n"
                                 "{\n"
                                 "    return {};\n"
                                 "}\n";
    EXPECT_TRUE(lintContent("src/scenario/x.cc", external).empty());
}

TEST(LintScopes, WallClockNotEnforcedInBench)
{
    const auto findings = lintFile(fixture("bad_wallclock.cc"),
                                   "bench/bad_wallclock.cc");
    EXPECT_TRUE(linesOf(findings, "wall-clock").empty());
}

TEST(LintScopes, RngImplementationIsExempt)
{
    const auto findings =
        lintFile(fixture("bad_rand.cc"), "src/common/rng.cc");
    EXPECT_TRUE(linesOf(findings, "raw-rand").empty());
}

TEST(LintScopes, LoggerBackendMayIncludeIostream)
{
    const std::string code = "#include <iostream>\n";
    EXPECT_TRUE(lintContent("src/common/logging.cc", code).empty());
    EXPECT_EQ(lintContent("src/core/adrias.cc", code).size(), 1u);
}

TEST(LintScopes, UnorderedAllowedOutsideSimCore)
{
    const auto findings =
        lintFile(fixture("bad_unordered.cc"), "src/ml/cache.cc");
    EXPECT_TRUE(linesOf(findings, "unordered-container").empty());
}

TEST(LintStripper, CommentsAndStringsNeverMatch)
{
    const std::string code =
        "// " + std::string("rand") + "() lives here\n" +
        "/* std::" + std::string("mt19937") + " too */\n" +
        "const char *s = \"" + std::string("time") + "(0)\";\n";
    EXPECT_TRUE(lintContent("src/core/x.cc", code).empty());
}

TEST(LintStripper, MultiLineBlockComment)
{
    const std::string code = "/*\n std::" + std::string("rand") +
                             "()\n*/\nint x = 0;\n";
    EXPECT_TRUE(lintContent("src/core/x.cc", code).empty());
}

TEST(LintIo, MissingFileReportsIoFinding)
{
    const auto findings =
        lintFile(fixture("does_not_exist.cc"), "src/core/missing.cc");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "io");
}

TEST(LintFormat, FindingRendersAsGccStyleDiagnostic)
{
    const Finding f{"src/a.cc", 12, "raw-rand", "detail text"};
    EXPECT_EQ(adrias::lint::formatFinding(f),
              "src/a.cc:12: [raw-rand] detail text");
}

/** The guarantee the `lint` CTest target enforces: the tree is clean. */
TEST(LintTree, RepositoryScansClean)
{
    const auto findings = lintTree(ADRIAS_LINT_REPO_ROOT);
    for (const auto &f : findings)
        ADD_FAILURE() << adrias::lint::formatFinding(f);
}

} // namespace
