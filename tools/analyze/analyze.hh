/**
 * @file
 * Cross-file semantic static analysis for the Adrias tree
 * (DESIGN.md §13).  Four whole-tree passes over the declaration
 * index built by tools/analyze/index.hh:
 *
 *   checkpoint-coverage  every non-static data member of a class
 *                        implementing the Checkpointable
 *                        saveState/restoreState pair must be
 *                        referenced in *both* bodies (delegation to
 *                        same-class helpers is followed), or carry
 *                        ADRIAS_NOT_CHECKPOINTED(reason).  A forgotten
 *                        field is a silent divergence after restore.
 *
 *   lock-discipline      in a class owning an adrias::Mutex, every
 *                        mutable data member must be
 *                        ADRIAS_GUARDED_BY-annotated or carry
 *                        ADRIAS_LOCK_FREE(reason).  Const members,
 *                        atomics and condition variables are
 *                        intrinsically safe and exempt.
 *
 *   determinism-hazard   flags (a) range-for iteration over
 *                        unordered containers or pointer-keyed maps
 *                        inside functions that feed checkpoints, CSV
 *                        datasets or binary snapshots — iteration
 *                        order would leak into reproducible outputs —
 *                        and (b) `x += ...` float accumulation into
 *                        variables declared outside a
 *                        parallelFor/parallelForEach chunk region,
 *                        which races and reorders; the blessed
 *                        pattern is per-chunk partial slots combined
 *                        in chunk index order (DESIGN.md §9).
 *
 *   unused-api           every class, member function and free
 *                        function declared in src/ is referenced by
 *                        name somewhere in src/, bench/, examples/,
 *                        tools/ or perfbench/ outside its own
 *                        declarations and definitions.  Tests are not
 *                        users.  Needs the whole program, so only
 *                        analyzeProgram/analyzeTree run it.
 *
 * Pass ids double as suppression rule names: the shared NOLINT
 * machinery (tools/lint/source.hh) applies, e.g.
 * `// NOLINT(determinism-hazard)` on the offending line.  Prefer the
 * reasoned waiver macros (ADRIAS_NOT_CHECKPOINTED / ADRIAS_LOCK_FREE)
 * for the member-level passes — they carry the why.  unused-api takes
 * only `// NOLINT(unused-api): <reason>` on a declaration line.
 */

#ifndef ADRIAS_TOOLS_ANALYZE_ANALYZE_HH
#define ADRIAS_TOOLS_ANALYZE_ANALYZE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "analyze/index.hh"

namespace adrias::analyze
{

/** One pass finding at a specific source line. */
struct Finding
{
    /** Normalized repo-relative path ("src/scenario/engine.hh"). */
    std::string file;

    /** 1-based line number. */
    std::size_t line = 0;

    /** Pass id ("checkpoint-coverage", ...). */
    std::string pass;

    /** Human-readable explanation, including the fix options. */
    std::string detail;
};

/** Pass metadata for --list-passes and the self-tests. */
struct PassInfo
{
    std::string id;
    std::string description;
};

/** @return every registered pass (stable order). */
const std::vector<PassInfo> &passes();

/**
 * Analyze a set of files with the per-file-set passes: build the
 * merged declaration index, run checkpoint-coverage, lock-discipline
 * and determinism-hazard, drop findings suppressed by NOLINT escapes
 * (pass ids are the rule names), and return the rest sorted by
 * (file, line).  unused-api is not run: a file subset cannot tell
 * what the rest of the program uses.
 */
std::vector<Finding> analyzeFiles(const std::vector<SourceFile> &files);

/**
 * Analyze a whole program: analyzeFiles over `declaring` plus the
 * unused-api pass, which takes `declaring` and `users` together as
 * the references.  `users` are only scanned for identifiers.
 */
std::vector<Finding> analyzeProgram(const std::vector<SourceFile> &declaring,
                                    const std::vector<SourceFile> &users);

/** The files analyzeTree reads, as repo-relative labels and text. */
struct Tree
{
    std::vector<SourceFile> src;   ///< src/: analyzed, declares the API
    std::vector<SourceFile> users; ///< bench/ examples/ tools/ perfbench/
    std::vector<Finding> unreadable; ///< "io" findings
};

/**
 * Read *.cc and *.hh under src/ and the user directories, recursively
 * and sorted, skipping any path containing a `fixtures` directory.
 * tests/ is not read: tests are not users of the API, and the
 * invariants the passes check live in src/.
 */
Tree readTree(const std::string &repo_root);

/** analyzeProgram over readTree(repo_root), plus its io findings. */
std::vector<Finding> analyzeTree(const std::string &repo_root);

/** "src/foo.hh:12: [checkpoint-coverage] ..." */
std::string formatFinding(const Finding &finding);

} // namespace adrias::analyze

#endif // ADRIAS_TOOLS_ANALYZE_ANALYZE_HH
