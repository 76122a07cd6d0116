/**
 * @file
 * Project lint: token/regex-level enforcement of the simulator's
 * determinism and hygiene invariants, with no libclang dependency.
 *
 * Rules (ids usable in NOLINT(<id>) / NOLINTNEXTLINE(<id>) escapes):
 *
 *   raw-rand             no std::rand/srand/random_device/mt19937/...
 *                        anywhere in src/, tests/ or bench/ — all
 *                        randomness flows through common/rng.hh so a
 *                        single seed reproduces every experiment.
 *   wall-clock           no wall-clock or CPU-clock reads (time(),
 *                        clock(), std::chrono::system_clock, ...) in
 *                        src/ or tests/; simulation time is explicit.
 *   unordered-container  no std::unordered_{map,set} in src/testbed,
 *                        src/scenario, src/core: iteration order leaks
 *                        into datasets and breaks bit-reproducibility.
 *   nodiscard-result     function declarations in src/ headers that
 *                        return Result<...> must carry [[nodiscard]]
 *                        so errors cannot be silently ignored.
 *   float-equal          no ==/!= against floating-point literals in
 *                        src/; use tolerances or ordering comparisons.
 *   iostream-include     no #include <iostream> in src/ outside
 *                        common/logging.cc — output goes through the
 *                        Logger so bench tables stay on stdout alone.
 *   raw-ofstream         no raw std::ofstream persistence in src/;
 *                        writes go through common/io/durable_file.hh.
 *   raw-thread           no std::thread/std::async (or <thread>/
 *                        <future> includes) in src/ outside
 *                        common/threadpool.* — all parallelism goes
 *                        through the deterministic ThreadPool.
 *   raw-intrinsics       no intrinsics header (*intrin.h) and no
 *                        _mm* / __m<N> identifiers anywhere in src,
 *                        tests or bench: the kernels are plain C++
 *                        that the compiler widens.
 *   isa-clones           in src/, target(...) / target_clones(...)
 *                        attributes (and #pragma ... target) appear
 *                        only in ml/{matrix,lstm}.cc and ml/simd.hh,
 *                        and name only "avx2" and "default", so no
 *                        clone of a bitwise kernel can contract
 *                        mul+add into FMA.
 *
 * nodiscard-result covers src/ headers and, in .cc files, file-local
 * (static or anonymous-namespace) function declarations — local
 * helpers returning Result<...> must not be silently droppable either.
 *
 * Escapes: NOLINT / NOLINT(rule-a,rule-b) on the offending line,
 * NOLINTNEXTLINE(...) on the line above, or NOLINTBEGIN(rule) /
 * NOLINTEND(rule) around a region (see tools/lint/source.hh; the
 * syntax is shared with the tools/analyze passes).
 *
 * The scanner strips // and both kinds of block comments plus string
 * and character literals before matching, so prose mentioning rand()
 * or "time(" never trips a rule.  Raw string literals are not
 * understood (none exist in this tree).
 */

#ifndef ADRIAS_TOOLS_LINT_LINT_HH
#define ADRIAS_TOOLS_LINT_LINT_HH

#include <cstddef>
#include <string>
#include <vector>

namespace adrias::lint
{

/** One rule violation at a specific source line. */
struct Finding
{
    /** Normalized repo-relative path ("src/core/adrias.cc"). */
    std::string file;

    /** 1-based line number. */
    std::size_t line = 0;

    /** Rule id ("raw-rand", ...). */
    std::string rule;

    /** Human-readable explanation of what matched. */
    std::string detail;
};

/** Rule metadata for --list-rules and the self-tests. */
struct RuleInfo
{
    std::string id;
    std::string description;
};

/** @return every registered rule (stable order). */
const std::vector<RuleInfo> &rules();

/**
 * Lint one file's content.
 *
 * @param label repo-relative path with forward slashes; decides which
 *        rules apply (see the scopes in the file comment).
 * @param content full file text.
 */
std::vector<Finding> lintContent(const std::string &label,
                                 const std::string &content);

/**
 * Read and lint one file on disk.
 *
 * @param path filesystem path to read.
 * @param label repo-relative label used for rule scoping/reporting.
 */
std::vector<Finding> lintFile(const std::string &path,
                              const std::string &label);

/**
 * Recursively lint src/, tests/ and bench/ under a repo root.
 *
 * Scans *.cc and *.hh, skipping any path containing a `fixtures`
 * directory (deliberately violating lint self-test inputs).  Files are
 * visited in sorted label order so output is deterministic.
 */
std::vector<Finding> lintTree(const std::string &repo_root);

/** "src/foo.cc:12: [raw-rand] ..." */
std::string formatFinding(const Finding &finding);

} // namespace adrias::lint

#endif // ADRIAS_TOOLS_LINT_LINT_HH
