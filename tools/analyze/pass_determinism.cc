/**
 * @file
 * determinism-hazard pass.  Two hazards, both of which silently break
 * the bit-reproducibility contract (DESIGN.md §9):
 *
 *  (a) Range-for iteration over an unordered container (or a
 *      pointer-keyed std::map — address order varies run to run)
 *      inside a function that feeds a reproducible sink: a
 *      checkpoint (saveState / BinaryWriter), a CSV dump
 *      (CsvWriter / writeRow), or dataset structures.
 *      Iteration order would leak into persisted bytes.
 *
 *  (b) `x += ...` accumulation into a float/double declared *outside*
 *      a parallelFor/parallelForEach chunk region.  Cross-chunk
 *      accumulation races, and even when locked it reorders float
 *      addition.  The blessed pattern — per-chunk partial slots
 *      (`partials[chunk] += ...`) combined in chunk index order after
 *      the join — is recognized and not flagged, as are accumulators
 *      declared inside the region (chunk-local).
 *
 * The pass works on the indexed bodies (inline methods plus
 * out-of-line definitions), so member containers declared in the
 * header are seen when the loop lives in the .cc file.  The
 * ThreadPool's own implementation is exempt from (b): it is the
 * machinery the rule points everyone at.
 */

#include "analyze/passes.hh"

#include <cctype>

#include "lint/source.hh"

namespace adrias::analyze
{

namespace
{

using lint::identifiersIn;
using lint::isIdentChar;
using lint::splitLines;

/** Identifiers that mark a body as feeding a reproducible sink. */
const std::set<std::string> kSinkMarkers = {
    "saveState", "exportState", "BinaryWriter", "CsvWriter",
    "writeRow",  "writeCsv",    "Dataset",
};

/** One function body with its location and class context. */
struct BodyRef
{
    std::string name;
    const std::string *head = nullptr;
    const std::string *body = nullptr;
    std::string file;
    std::size_t bodyLine = 0; ///< 1-based line of the body's '{'
    const Class *cls = nullptr;
};

/** Matching '>' for the '<' at `open`, or npos. */
std::size_t
matchAngle(const std::string &text, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '<')
            ++depth;
        else if (text[i] == '>' && --depth == 0)
            return i;
    }
    return std::string::npos;
}

/**
 * Hazard-container detection in one declaration-ish text: true for
 * unordered_map/unordered_set, and for map/multimap whose key type
 * segment contains a pointer.
 */
bool
isHazardContainerType(const std::string &text)
{
    for (const auto &[id, col] : identifiersIn(text)) {
        const bool unordered =
            id == "unordered_map" || id == "unordered_set" ||
            id == "unordered_multimap" || id == "unordered_multiset";
        const bool orderedMap = id == "map" || id == "multimap";
        if (!unordered && !orderedMap)
            continue;
        const std::size_t open = text.find('<', col + id.size());
        if (open == std::string::npos || open != text.find_first_not_of(
                                                     ' ', col + id.size()))
            continue;
        if (unordered)
            return true;
        // Pointer-keyed ordered map: '*' before the first top-level
        // comma inside the angle brackets.
        int angle = 0;
        for (std::size_t i = open; i < text.size(); ++i) {
            const char c = text[i];
            if (c == '<')
                ++angle;
            else if (c == '>') {
                if (--angle == 0)
                    break;
            } else if (c == ',' && angle == 1)
                break;
            else if (c == '*' && angle >= 1)
                return true;
        }
    }
    return false;
}

/**
 * Variables declared with a hazard container type in `text`: the
 * identifier following the closing '>' of the container's template
 * argument list (skipping &, *, and whitespace).
 */
std::set<std::string>
hazardVariablesIn(const std::string &text)
{
    std::set<std::string> vars;
    for (const std::string &line : splitLines(text)) {
        for (const auto &[id, col] : identifiersIn(line)) {
            const bool unordered =
                id == "unordered_map" || id == "unordered_set" ||
                id == "unordered_multimap" || id == "unordered_multiset";
            const bool orderedMap = id == "map" || id == "multimap";
            if (!unordered && !orderedMap)
                continue;
            const std::size_t open = line.find('<', col + id.size());
            if (open == std::string::npos)
                continue;
            const std::size_t close = matchAngle(line, open);
            if (close == std::string::npos)
                continue;
            if (!isHazardContainerType(line.substr(col, close - col + 1)))
                continue;
            std::size_t at = close + 1;
            while (at < line.size() &&
                   (std::isspace(static_cast<unsigned char>(line[at])) ||
                    line[at] == '&' || line[at] == '*'))
                ++at;
            std::size_t end = at;
            while (end < line.size() && isIdentChar(line[end]))
                ++end;
            if (end > at &&
                !std::isdigit(static_cast<unsigned char>(line[at])))
                vars.insert(line.substr(at, end - at));
        }
    }
    return vars;
}

/** The sink marker referenced by head+body, or "" when none. */
std::string
sinkMarkerIn(const BodyRef &ref)
{
    std::set<std::string> ids = identifierSet(*ref.body);
    const std::set<std::string> headIds = identifierSet(*ref.head);
    ids.insert(headIds.begin(), headIds.end());
    if (kSinkMarkers.count(ref.name))
        return ref.name;
    for (const std::string &marker : kSinkMarkers) {
        if (ids.count(marker))
            return marker;
    }
    return "";
}

/**
 * Does `line` look like it declares `name` — an identifier, '&' or
 * '*' directly before it (a type), and '=', '{', ';', ',' or ')'
 * after it?  Token-level approximation, good enough to separate
 * `double total` from `total = x` and `f(total)`.
 */
bool
declaresName(const std::string &line, const std::string &name)
{
    const auto ids = identifiersIn(line);
    for (std::size_t k = 0; k < ids.size(); ++k) {
        if (ids[k].first != name || k == 0)
            continue;
        const std::string &prevTok = ids[k - 1].first;
        if (prevTok == "return" || prevTok == "if" || prevTok == "while" ||
            prevTok == "else" || prevTok == "do")
            continue;
        // The previous token must end just before `name` modulo
        // whitespace and declarator decoration.
        std::size_t between = ids[k - 1].second + prevTok.size();
        bool clean = true;
        for (std::size_t i = between; i < ids[k].second; ++i) {
            const char c = line[i];
            if (!std::isspace(static_cast<unsigned char>(c)) &&
                c != '&' && c != '*' && c != ':' && c != '<' &&
                c != '>') {
                clean = false;
                break;
            }
        }
        if (!clean)
            continue;
        const char after =
            lint::nextNonSpace(line, ids[k].second + name.size());
        if (after == '=' || after == '{' || after == ';' ||
            after == ',' || after == ')' || after == '\0')
            return true;
    }
    return false;
}

bool
declaresNameAnywhere(const std::string &text, const std::string &name)
{
    for (const std::string &line : splitLines(text)) {
        if (declaresName(line, name))
            return true;
    }
    return false;
}

bool
declaredAsFloat(const std::string &text, const std::string &name)
{
    for (const std::string &line : splitLines(text)) {
        if (!declaresName(line, name))
            continue;
        const std::set<std::string> ids = identifierSet(line);
        if (ids.count("double") || ids.count("float"))
            return true;
    }
    return false;
}

/** 1-based source line of position `pos` inside `ref`'s body. */
std::size_t
lineOfBodyPos(const BodyRef &ref, std::size_t pos)
{
    std::size_t line = ref.bodyLine;
    for (std::size_t i = 0; i < pos && i < ref.body->size(); ++i) {
        if ((*ref.body)[i] == '\n')
            ++line;
    }
    return line;
}

/** Check one body for hazard (a): unordered iteration into a sink. */
void
checkUnorderedIteration(const BodyRef &ref,
                        std::vector<Finding> &findings)
{
    const std::string marker = sinkMarkerIn(ref);
    if (marker.empty())
        return;

    std::set<std::string> hazards = hazardVariablesIn(*ref.body);
    {
        const std::set<std::string> headHazards =
            hazardVariablesIn(*ref.head);
        hazards.insert(headHazards.begin(), headHazards.end());
    }
    if (ref.cls != nullptr) {
        for (const Member &member : ref.cls->members) {
            if (isHazardContainerType(member.type))
                hazards.insert(member.name);
        }
    }
    if (hazards.empty())
        return;

    const std::vector<std::string> lines = splitLines(*ref.body);
    std::size_t offset = 0;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string &line = lines[li];
        for (const auto &[id, col] : identifiersIn(line)) {
            if (id != "for")
                continue;
            const std::size_t open = line.find('(', col + 3);
            if (open == std::string::npos)
                continue;
            // The range-for ':' at depth >= 1, not part of '::'.
            int depth = 0;
            std::size_t colon = std::string::npos;
            std::size_t close = std::string::npos;
            for (std::size_t i = open; i < line.size(); ++i) {
                const char c = line[i];
                if (c == '(')
                    ++depth;
                else if (c == ')') {
                    if (--depth == 0) {
                        close = i;
                        break;
                    }
                } else if (c == ':' && depth >= 1 &&
                           colon == std::string::npos &&
                           (i + 1 >= line.size() || line[i + 1] != ':') &&
                           (i == 0 || line[i - 1] != ':')) {
                    colon = i;
                }
            }
            if (colon == std::string::npos)
                continue;
            const std::string rangeExpr = line.substr(
                colon + 1, (close == std::string::npos ? line.size()
                                                       : close) -
                               colon - 1);
            for (const auto &[rangeId, rc] : identifiersIn(rangeExpr)) {
                (void)rc;
                if (!hazards.count(rangeId))
                    continue;
                findings.push_back(
                    {ref.file, lineOfBodyPos(ref, offset + col),
                     "determinism-hazard",
                     "iteration over unordered/pointer-keyed container '" +
                         rangeId + "' in '" + ref.name +
                         "', which feeds a reproducible sink ('" + marker +
                         "'); iterate a sorted view instead"});
                break;
            }
        }
        offset += line.size() + 1;
    }
}

/** Check one body for hazard (b): cross-chunk float accumulation. */
void
checkFloatAccumulation(const BodyRef &ref,
                       std::vector<Finding> &findings)
{
    const std::string &body = *ref.body;
    std::size_t search = 0;
    while (search < body.size()) {
        // Locate a parallelFor / parallelForEach call region.
        std::size_t at = std::string::npos;
        for (std::size_t i = search; i + 11 < body.size(); ++i) {
            if (body.compare(i, 11, "parallelFor") != 0)
                continue;
            if (i > 0 && isIdentChar(body[i - 1]))
                continue;
            std::size_t end = i + 11;
            while (end < body.size() && isIdentChar(body[end]))
                ++end;
            const std::string name = body.substr(i, end - i);
            if (name != "parallelFor" && name != "parallelForEach")
                continue;
            at = end;
            break;
        }
        if (at == std::string::npos)
            return;
        const std::size_t open = body.find('(', at);
        if (open == std::string::npos)
            return;
        int depth = 0;
        std::size_t close = body.size();
        for (std::size_t i = open; i < body.size(); ++i) {
            if (body[i] == '(')
                ++depth;
            else if (body[i] == ')' && --depth == 0) {
                close = i;
                break;
            }
        }
        const std::string region = body.substr(open, close - open);
        search = close + 1;

        // `ident +=` inside the region, target not subscripted.
        for (std::size_t i = 0; i + 1 < region.size(); ++i) {
            if (region[i] != '+' || region[i + 1] != '=')
                continue;
            std::size_t end = i;
            while (end > 0 && std::isspace(static_cast<unsigned char>(
                                  region[end - 1])))
                --end;
            if (end == 0 || !isIdentChar(region[end - 1]))
                continue; // `arr[k] +=` or `*p +=`: per-slot, blessed
            std::size_t begin = end;
            while (begin > 0 && isIdentChar(region[begin - 1]))
                --begin;
            const std::string target =
                region.substr(begin, end - begin);
            if (declaresNameAnywhere(region, target))
                continue; // chunk-local accumulator
            const bool floatOuter =
                declaredAsFloat(*ref.head + "\n" + body, target);
            bool floatMember = false;
            if (ref.cls != nullptr) {
                for (const Member &member : ref.cls->members) {
                    if (member.name != target)
                        continue;
                    const std::set<std::string> ids =
                        identifierSet(member.type);
                    floatMember =
                        ids.count("double") || ids.count("float");
                    break;
                }
            }
            if (!floatOuter && !floatMember)
                continue;
            findings.push_back(
                {ref.file, lineOfBodyPos(ref, open + begin),
                 "determinism-hazard",
                 "float accumulation into '" + target +
                     "' declared outside the parallelFor chunk region "
                     "in '" + ref.name +
                     "'; accumulate into per-chunk slots and combine "
                     "in chunk index order"});
        }
    }
}

} // namespace

void
runDeterminismHazard(const Index &index, std::vector<Finding> &findings)
{
    std::vector<BodyRef> bodies;
    for (const Class &cls : index.classes) {
        for (const Method &method : cls.methods) {
            if (method.body.empty())
                continue;
            bodies.push_back({method.name, &method.head, &method.body,
                              method.file, method.bodyLine, &cls});
        }
    }
    for (const Function &fn : index.functions) {
        const Class *cls =
            fn.className.empty() ? nullptr : index.findClass(fn.className);
        bodies.push_back(
            {fn.name, &fn.head, &fn.body, fn.file, fn.bodyLine, cls});
    }

    for (const BodyRef &ref : bodies) {
        checkUnorderedIteration(ref, findings);
        const bool poolItself =
            ref.file.find("src/common/threadpool.") != std::string::npos;
        if (!poolItself)
            checkFloatAccumulation(ref, findings);
    }
}

} // namespace adrias::analyze
