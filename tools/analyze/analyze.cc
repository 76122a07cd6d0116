#include "analyze/analyze.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "analyze/passes.hh"
#include "lint/source.hh"

namespace adrias::analyze
{

const std::vector<PassInfo> &
passes()
{
    static const std::vector<PassInfo> kPasses = {
        {"checkpoint-coverage",
         "every non-static data member of a saveState/restoreState "
         "class is referenced in both bodies or carries "
         "ADRIAS_NOT_CHECKPOINTED(reason)"},
        {"lock-discipline",
         "every mutable member of a Mutex-owning class is "
         "ADRIAS_GUARDED_BY-annotated or carries "
         "ADRIAS_LOCK_FREE(reason)"},
        {"determinism-hazard",
         "no unordered-container iteration into checkpoint/dataset "
         "sinks; no cross-chunk float accumulation inside "
         "parallelFor regions"},
        {"unused-api",
         "every class and function declared in src/ is referenced by "
         "src/, bench/, examples/, tools/ or perfbench/, or carries "
         "NOLINT(unused-api): <reason>"},
    };
    return kPasses;
}

namespace
{

void
sortFindings(std::vector<Finding> &findings)
{
    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.file != b.file)
                             return a.file < b.file;
                         return a.line < b.line;
                     });
}

/** The per-file-set passes over a built index, NOLINT-filtered. */
std::vector<Finding>
runFilePasses(const Index &index, const std::vector<SourceFile> &files)
{
    std::vector<Finding> raw;
    runCheckpointCoverage(index, raw);
    runLockDiscipline(index, raw);
    runDeterminismHazard(index, raw);

    // NOLINT escapes are parsed from the raw (comment-bearing) text,
    // per file, with pass ids as the rule names.
    std::map<std::string, lint::Suppressions> escapes;
    for (const SourceFile &file : files) {
        escapes.emplace(file.label,
                        lint::Suppressions(lint::splitLines(file.content)));
    }

    std::vector<Finding> findings;
    for (Finding &finding : raw) {
        const auto it = escapes.find(finding.file);
        if (it != escapes.end() && finding.line > 0 &&
            it->second.suppressed(finding.line - 1, finding.pass))
            continue;
        findings.push_back(std::move(finding));
    }
    return findings;
}

/**
 * Read the .cc/.hh files under repo_root's `dirs`, recursively and
 * sorted, skipping any path containing a `fixtures` directory; a file
 * that cannot be opened becomes an io finding.
 */
void
readSources(const std::string &repo_root,
            const std::vector<std::string> &dirs,
            std::vector<SourceFile> &files, std::vector<Finding> &unreadable)
{
    namespace fs = std::filesystem;

    std::vector<std::pair<std::string, std::string>> paths; // label, path
    for (const std::string &dir : dirs) {
        const fs::path base = fs::path(repo_root) / dir;
        if (!fs::exists(base))
            continue;
        for (const auto &entry : fs::recursive_directory_iterator(base)) {
            const std::string ext = entry.path().extension().string();
            if (!entry.is_regular_file() || (ext != ".cc" && ext != ".hh"))
                continue;
            std::string label =
                fs::relative(entry.path(), repo_root).generic_string();
            if (label.find("fixtures/") == std::string::npos)
                paths.emplace_back(std::move(label), entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    for (const auto &[label, path] : paths) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            unreadable.push_back({label, 0, "io", "cannot open " + path});
            continue;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        files.push_back({label, buffer.str()});
    }
}

} // namespace

std::vector<Finding>
analyzeFiles(const std::vector<SourceFile> &files)
{
    std::vector<Finding> findings =
        runFilePasses(buildIndex(files), files);
    sortFindings(findings);
    return findings;
}

std::vector<Finding>
analyzeProgram(const std::vector<SourceFile> &declaring,
               const std::vector<SourceFile> &users)
{
    const Index index = buildIndex(declaring);
    std::vector<Finding> findings = runFilePasses(index, declaring);
    runUnusedApi(index, declaring, users, findings);
    sortFindings(findings);
    return findings;
}

Tree
readTree(const std::string &repo_root)
{
    Tree tree;
    readSources(repo_root, {"src"}, tree.src, tree.unreadable);
    readSources(repo_root, {"bench", "examples", "tools", "perfbench"},
                tree.users, tree.unreadable);
    return tree;
}

std::vector<Finding>
analyzeTree(const std::string &repo_root)
{
    Tree tree = readTree(repo_root);
    std::vector<Finding> findings = std::move(tree.unreadable);
    std::vector<Finding> analyzed = analyzeProgram(tree.src, tree.users);
    findings.insert(findings.end(),
                    std::make_move_iterator(analyzed.begin()),
                    std::make_move_iterator(analyzed.end()));
    return findings;
}

std::string
formatFinding(const Finding &finding)
{
    return finding.file + ":" + std::to_string(finding.line) + ": [" +
           finding.pass + "] " + finding.detail;
}

} // namespace adrias::analyze
