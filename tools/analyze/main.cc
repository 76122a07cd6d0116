/**
 * @file
 * adrias_analyze entry point.
 *
 *   adrias_analyze <repo-root>              analyze src/, with bench/,
 *                                           examples/, tools/ and
 *                                           perfbench/ as API users;
 *                                           exit 1 on findings, 0
 *                                           when clean.
 *   adrias_analyze <repo-root> -o <file>    additionally write the
 *                                           findings to <file> (for
 *                                           the CI artifact upload).
 *   adrias_analyze --list-passes            print pass ids and
 *                                           descriptions.
 *
 * Wired into CTest as the `analyze` test
 * (tools/analyze/CMakeLists.txt) and the CI static-analysis job.
 */

#include "analyze/analyze.hh"

// The analyzer is a host tool, not simulator library code, so it may
// talk to the console and filesystem directly.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 1 && args[0] == "--list-passes") {
        for (const auto &pass : adrias::analyze::passes())
            std::cout << pass.id << "  " << pass.description << "\n";
        return 0;
    }

    std::string root;
    std::string output;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if ((args[i] == "-o" || args[i] == "--output") &&
            i + 1 < args.size()) {
            output = args[++i];
        } else if (root.empty()) {
            root = args[i];
        } else {
            root.clear();
            break;
        }
    }
    if (root.empty()) {
        std::cerr << "usage: adrias_analyze <repo-root> "
                     "[-o findings.txt] | --list-passes\n";
        return 2;
    }

    const auto findings = adrias::analyze::analyzeTree(root);
    for (const auto &finding : findings)
        std::cout << adrias::analyze::formatFinding(finding) << "\n";
    if (!output.empty()) {
        std::ofstream out(output);
        for (const auto &finding : findings)
            out << adrias::analyze::formatFinding(finding) << "\n";
        if (!out) {
            std::cerr << "adrias_analyze: cannot write " << output << "\n";
            return 2;
        }
    }
    if (!findings.empty()) {
        std::cout << findings.size() << " analyzer finding"
                  << (findings.size() == 1 ? "" : "s")
                  << " (waive with ADRIAS_NOT_CHECKPOINTED(reason) / "
                     "ADRIAS_LOCK_FREE(reason) on the member, or "
                     "NOLINT(<pass>) on the line; unused-api wants "
                     "NOLINT(unused-api): <reason>)\n";
        return 1;
    }
    return 0;
}
