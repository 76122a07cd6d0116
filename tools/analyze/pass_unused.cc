/**
 * @file
 * unused-api pass: a class, struct, member function or free function
 * declared in src/ whose name nothing references outside that name's
 * own declarations and definitions.  The references are every
 * identifier of src/ and of the user directories (bench/, examples/,
 * tools/, perfbench/); tests are not users.
 *
 * Matching is by identifier, like the other passes: an occurrence of
 * `add` anywhere outside the extents of entities named `add` (and, for
 * a class, outside its members' extents) marks every `add` as used.
 * Overloads and names shared between entities therefore count as
 * used — false negatives, never false positives.  Constructors,
 * destructors, operators and deleted functions are never findings.
 *
 * The waiver is `// NOLINT(unused-api): <reason>` on the first line
 * of one of the entity's declarations, or NOLINTNEXTLINE on the line
 * above it.  A waiver without reason text is itself a finding.
 */

#include "analyze/passes.hh"

#include <algorithm>
#include <map>
#include <optional>

#include "lint/source.hh"

namespace adrias::analyze
{

namespace
{

using lint::identifiersIn;
using lint::splitLines;
using lint::startsWith;
using lint::stripCommentsAndStrings;
using lint::trimmed;

/**
 * The waiver of a declaration starting on 1-based `line`:
 * `NOLINT(unused-api): <reason>` on that line, or
 * `NOLINTNEXTLINE(unused-api): <reason>` on the one above.
 * @return the reason ("" when the colon or the text is missing), or
 *         nullopt when there is no waiver.
 */
std::optional<std::string>
waiverReason(const std::vector<std::string> &lines, std::size_t line)
{
    const std::pair<std::size_t, std::string> spots[] = {
        {line - 1, "NOLINT(unused-api)"},
        {line - 2, "NOLINTNEXTLINE(unused-api)"},
    };
    for (const auto &[index, marker] : spots) {
        if (index >= lines.size()) // also line 1's missing line above
            continue;
        const std::size_t at = lines[index].find(marker);
        if (at == std::string::npos)
            continue;
        const std::string rest =
            trimmed(lines[index].substr(at + marker.size()));
        return startsWith(rest, ":") ? trimmed(rest.substr(1))
                                     : std::string();
    }
    return std::nullopt;
}

/** Last `::` component of a qualified name. */
std::string
lastComponent(const std::string &qualified)
{
    const std::size_t at = qualified.rfind("::");
    return at == std::string::npos ? qualified : qualified.substr(at + 2);
}

/** A constructor, destructor, operator or deleted function head. */
bool
isSpecialMember(const std::string &name, const std::string &owner,
                const std::string &head)
{
    if (name.empty() || name == lastComponent(owner))
        return true;
    const std::size_t paren = head.find('(');
    const std::string before = head.substr(0, paren);
    for (const auto &[id, col] : identifiersIn(before)) {
        (void)col;
        if (id == "operator")
            return true;
    }
    return before.find('~') != std::string::npos ||
           lint::endsWith(trimmed(head), "= delete");
}

/** One reportable entity: every extent-bearing occurrence of it. */
struct Entity
{
    std::string kind;  ///< "class", "member function", "free function"
    std::string label; ///< "stats::Histogram", "Rng::split", "asciiBar"
    std::string name;
    std::vector<const Extent *> sites; ///< declaration first
};

/** Name -> (file -> lines) of every identifier occurrence. */
using Occurrences =
    std::map<std::string, std::map<std::string, std::vector<std::size_t>>>;

void
collectOccurrences(const std::vector<SourceFile> &files,
                   const std::set<std::string> &names, Occurrences &out)
{
    for (const SourceFile &file : files) {
        const std::vector<std::string> raw = splitLines(file.content);
        const std::vector<std::string> lines = stripCommentsAndStrings(raw);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            // `#include <name>` names a header, not an entity.
            if (startsWith(trimmed(raw[i]), "#include"))
                continue;
            for (const auto &[id, col] : identifiersIn(lines[i])) {
                (void)col;
                if (names.count(id))
                    out[id][file.label].push_back(i + 1);
            }
        }
    }
}

/**
 * Is `name` referenced outside its own text?  Its own text is every
 * extent of an entity called `name`, plus every extent of a member of
 * a class called `name`.
 */
bool
referenced(const std::string &name, const Occurrences &occurrences,
           const std::vector<Extent> &extents)
{
    const auto found = occurrences.find(name);
    if (found == occurrences.end())
        return false;
    for (const auto &[file, lines] : found->second) {
        for (const std::size_t line : lines) {
            bool own = false;
            for (const Extent &extent : extents) {
                if (extent.file == file && extent.line <= line &&
                    line <= extent.endLine &&
                    (extent.name == name ||
                     lastComponent(extent.owner) == name)) {
                    own = true;
                    break;
                }
            }
            if (!own)
                return true;
        }
    }
    return false;
}

} // namespace

void
runUnusedApi(const Index &index, const std::vector<SourceFile> &declaring,
             const std::vector<SourceFile> &users,
             std::vector<Finding> &findings)
{
    std::map<std::string, std::vector<std::string>> rawLines;
    for (const SourceFile &file : declaring)
        rawLines.emplace(file.label, splitLines(file.content));

    // Entities keyed by what a finding names; a class's methods are
    // one entity per name (overloads together), free functions too.
    std::map<std::string, Entity> entities;
    for (const Extent &extent : index.extents) {
        const std::string kind = extent.isClass        ? "class"
                                 : extent.owner.empty() ? "free function"
                                                        : "member function";
        std::string label = extent.owner.empty()
                                ? extent.name
                                : extent.owner + "::" + extent.name;
        label = startsWith(label, "adrias::") ? label.substr(8) : label;
        Entity &entity = entities[kind + " " + label];
        entity.kind = kind;
        entity.label = label;
        entity.name = extent.name;
        entity.sites.push_back(&extent);
    }

    // Special members are decided by their heads, which live on the
    // indexed methods and functions.
    std::set<std::string> special;
    for (const Class &cls : index.classes) {
        for (const Method &method : cls.methods) {
            if (isSpecialMember(method.name, cls.name, method.head))
                special.insert(cls.name + "::" + method.name);
        }
    }
    for (const Function &fn : index.functions) {
        if (isSpecialMember(fn.name, fn.className, fn.head))
            special.insert(fn.className + "::" + fn.name);
    }

    std::set<std::string> names;
    for (auto &[key, entity] : entities) {
        names.insert(entity.name);
        // Report at the header declaration when there is one.
        std::stable_sort(entity.sites.begin(), entity.sites.end(),
                         [](const Extent *a, const Extent *b) {
                             return lint::endsWith(a->file, ".hh") &&
                                    !lint::endsWith(b->file, ".hh");
                         });
    }
    Occurrences occurrences;
    collectOccurrences(declaring, names, occurrences);
    collectOccurrences(users, names, occurrences);

    for (const auto &[key, entity] : entities) {
        const Extent &first = *entity.sites.front();
        if (!first.isClass && special.count(first.owner + "::" + entity.name))
            continue;

        // A waiver on any declaration of the entity counts.
        bool waived = false;
        for (const Extent *site : entity.sites) {
            const std::optional<std::string> reason =
                waiverReason(rawLines[site->file], site->line);
            if (!reason)
                continue;
            if (reason->empty()) {
                findings.push_back(
                    {site->file, site->line, "unused-api",
                     "waiver for " + entity.kind + " '" + entity.label +
                         "' gives no reason; write "
                         "NOLINT(unused-api): <reason>"});
            }
            waived = true;
        }
        if (waived || referenced(entity.name, occurrences, index.extents))
            continue;
        findings.push_back(
            {first.file, first.line, "unused-api",
             entity.kind + " '" + entity.label +
                 "' is referenced nowhere in src/, bench/, examples/, "
                 "tools/ or perfbench/; delete it, or waive it with "
                 "NOLINT(unused-api): <reason>"});
    }
}

} // namespace adrias::analyze
