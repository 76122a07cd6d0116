#include "lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "lint/source.hh"

namespace adrias::lint
{

namespace
{

// --------------------------------------------------------------------------
// Scopes
// --------------------------------------------------------------------------

bool
inRandScope(const std::string &label)
{
    if (label == "src/common/rng.hh" || label == "src/common/rng.cc")
        return false; // the one sanctioned randomness source
    return startsWith(label, "src/") || startsWith(label, "tests/") ||
           startsWith(label, "bench/");
}

bool
inWallClockScope(const std::string &label)
{
    return startsWith(label, "src/") || startsWith(label, "tests/");
}

bool
inUnorderedScope(const std::string &label)
{
    return startsWith(label, "src/testbed/") ||
           startsWith(label, "src/scenario/") ||
           startsWith(label, "src/core/");
}

bool
inNodiscardScope(const std::string &label)
{
    return startsWith(label, "src/") &&
           (endsWith(label, ".hh") || endsWith(label, ".cc"));
}

bool
inFloatEqualScope(const std::string &label)
{
    return startsWith(label, "src/");
}

bool
inIostreamScope(const std::string &label)
{
    return startsWith(label, "src/") &&
           label != "src/common/logging.cc";
}

bool
inOfstreamScope(const std::string &label)
{
    return startsWith(label, "src/");
}

bool
inRawThreadScope(const std::string &label)
{
    if (label == "src/common/threadpool.hh" ||
        label == "src/common/threadpool.cc")
        return false; // the one sanctioned parallelism layer
    return startsWith(label, "src/");
}

bool
inIntrinsicsScope(const std::string &label)
{
    if (startsWith(label, "src/ml/simd"))
        return false; // the one sanctioned SIMD portability layer
    return startsWith(label, "src/") || startsWith(label, "tests/") ||
           startsWith(label, "bench/");
}

bool
inKernelTierScope(const std::string &label)
{
    return startsWith(label, "src/");
}

/** The two kernels with a vector twin read the effective tier. */
bool
mayReadKernelTier(const std::string &label)
{
    return startsWith(label, "src/ml/simd") ||
           label == "src/ml/matrix.cc" || label == "src/ml/lstm.cc";
}

/** Only the training entry points pin a tier (to Scalar). */
bool
mayPinKernelTier(const std::string &label)
{
    return startsWith(label, "src/ml/simd") ||
           label == "src/models/system_state.cc" ||
           label == "src/models/performance.cc";
}

// --------------------------------------------------------------------------
// Literal classification (float-equal)
// --------------------------------------------------------------------------

/** Is `token` a floating-point literal (1.0, .5, 2., 1e-9, 1.5f)? */
bool
isFloatLiteral(std::string token)
{
    if (token.empty())
        return false;
    if (token.back() == 'f' || token.back() == 'F' ||
        token.back() == 'l' || token.back() == 'L')
        token.pop_back();
    bool digits = false;
    bool dot = false;
    bool exponent = false;
    std::size_t i = 0;
    for (; i < token.size(); ++i) {
        const char c = token[i];
        if (std::isdigit(static_cast<unsigned char>(c))) {
            digits = true;
        } else if (c == '.' && !dot && !exponent) {
            dot = true;
        } else if ((c == 'e' || c == 'E') && digits && !exponent) {
            exponent = true;
            if (i + 1 < token.size() &&
                (token[i + 1] == '+' || token[i + 1] == '-'))
                ++i;
        } else {
            return false;
        }
    }
    return digits && (dot || exponent);
}

/** Literal-ish token ending right before `pos` (skipping spaces). */
std::string
tokenLeftOf(const std::string &line, std::size_t pos)
{
    std::size_t end = pos;
    while (end > 0 &&
           std::isspace(static_cast<unsigned char>(line[end - 1])))
        --end;
    std::size_t begin = end;
    auto literalChar = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '.';
    };
    while (begin > 0) {
        const char c = line[begin - 1];
        if (literalChar(c)) {
            --begin;
            continue;
        }
        // Exponent sign inside a literal: the '-' in "1e-9".
        if ((c == '-' || c == '+') && begin >= 2 &&
            (line[begin - 2] == 'e' || line[begin - 2] == 'E')) {
            --begin;
            continue;
        }
        break;
    }
    // Leading sign belongs to the literal only after another operator
    // or an open paren ("x == -1.0" and "(-.5 != y)").
    if (begin > 0 && (line[begin - 1] == '-' || line[begin - 1] == '+')) {
        std::size_t before = begin - 1;
        while (before > 0 &&
               std::isspace(static_cast<unsigned char>(line[before - 1])))
            --before;
        if (before == 0 || line[before - 1] == '(' ||
            line[before - 1] == ',' || line[before - 1] == '=')
            --begin;
    }
    std::string token = line.substr(begin, end - begin);
    if (!token.empty() && (token[0] == '-' || token[0] == '+'))
        token.erase(token.begin());
    return token;
}

/** Literal-ish token starting at/after `pos` (skipping spaces). */
std::string
tokenRightOf(const std::string &line, std::size_t pos)
{
    std::size_t begin = pos;
    while (begin < line.size() &&
           std::isspace(static_cast<unsigned char>(line[begin])))
        ++begin;
    if (begin < line.size() &&
        (line[begin] == '-' || line[begin] == '+'))
        ++begin;
    std::size_t end = begin;
    auto literalChar = [&](char c) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '.')
            return true;
        // exponent sign: 1e-9
        if ((c == '-' || c == '+') && end > begin &&
            (line[end - 1] == 'e' || line[end - 1] == 'E'))
            return true;
        return false;
    };
    while (end < line.size() && literalChar(line[end]))
        ++end;
    return line.substr(begin, end - begin);
}

// --------------------------------------------------------------------------
// Rules
// --------------------------------------------------------------------------

const std::set<std::string> kRandIdentifiers = {
    "rand",         "srand",        "drand48",
    "lrand48",      "mrand48",      "random_device",
    "mt19937",      "mt19937_64",   "minstd_rand",
    "minstd_rand0", "ranlux24",     "ranlux48",
    "knuth_b",      "default_random_engine",
};

const std::set<std::string> kClockIdentifiers = {
    "system_clock", "steady_clock", "high_resolution_clock",
    "gettimeofday", "clock_gettime", "timespec_get",
    "localtime",    "localtime_r",  "gmtime",
    "gmtime_r",     "mktime",       "difftime",
    "strftime",
};

/** Identifiers that only violate when called: time(...) / clock(...). */
const std::set<std::string> kClockCallIdentifiers = {"time", "clock"};

void
checkRawRand(const std::string &label,
             const Suppressions &nolint,
             const std::vector<std::string> &stripped,
             std::vector<Finding> &findings)
{
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        if (stripped[i].find("#include") != std::string::npos &&
            stripped[i].find("<random>") != std::string::npos &&
            !nolint.suppressed(i, "raw-rand")) {
            findings.push_back({label, i + 1, "raw-rand",
                                "#include <random>: all randomness must "
                                "flow through common/rng.hh"});
            continue;
        }
        for (const auto &[id, col] : identifiersIn(stripped[i])) {
            (void)col;
            if (kRandIdentifiers.count(id) &&
                !nolint.suppressed(i, "raw-rand")) {
                findings.push_back({label, i + 1, "raw-rand",
                                    "'" + id +
                                        "': use common/rng.hh (Rng) so "
                                        "one seed reproduces the run"});
                break;
            }
        }
    }
}

void
checkWallClock(const std::string &label,
               const Suppressions &nolint,
               const std::vector<std::string> &stripped,
               std::vector<Finding> &findings)
{
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        for (const auto &[id, col] : identifiersIn(stripped[i])) {
            const bool banned =
                kClockIdentifiers.count(id) > 0 ||
                (kClockCallIdentifiers.count(id) > 0 &&
                 nextNonSpace(stripped[i], col + id.size()) == '(');
            if (banned && !nolint.suppressed(i, "wall-clock")) {
                findings.push_back(
                    {label, i + 1, "wall-clock",
                     "'" + id +
                         "': sim code must use explicit SimTime, never "
                         "the wall clock"});
                break;
            }
        }
    }
}

void
checkUnordered(const std::string &label,
               const Suppressions &nolint,
               const std::vector<std::string> &stripped,
               std::vector<Finding> &findings)
{
    static const std::set<std::string> kBanned = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        for (const auto &[id, col] : identifiersIn(stripped[i])) {
            (void)col;
            if (kBanned.count(id) &&
                !nolint.suppressed(i, "unordered-container")) {
                findings.push_back(
                    {label, i + 1, "unordered-container",
                     "'" + id +
                         "': hash iteration order leaks "
                         "nondeterminism into datasets; use std::map "
                         "or a sorted vector"});
                break;
            }
        }
    }
}

/**
 * Brace-scope tracker: which lines sit at namespace scope (every open
 * brace is a namespace brace) and whether one of the enclosing
 * namespaces is anonymous.  Used to find .cc-local declarations.
 */
struct NamespaceScopes
{
    std::vector<bool> atNamespaceScope; ///< per line
    std::vector<bool> inAnonNamespace;  ///< per line
};

NamespaceScopes
scanNamespaceScopes(const std::vector<std::string> &stripped)
{
    NamespaceScopes scopes;
    scopes.atNamespaceScope.resize(stripped.size(), false);
    scopes.inAnonNamespace.resize(stripped.size(), false);

    // Each open brace is tagged: is it a namespace brace, and if so is
    // the namespace anonymous?
    struct Brace
    {
        bool isNamespace = false;
        bool isAnonymous = false;
    };
    std::vector<Brace> stack;
    std::string prevCode; // trimmed previous non-blank code text

    for (std::size_t i = 0; i < stripped.size(); ++i) {
        const bool allNs = std::all_of(
            stack.begin(), stack.end(),
            [](const Brace &b) { return b.isNamespace; });
        const bool anyAnon = std::any_of(
            stack.begin(), stack.end(),
            [](const Brace &b) { return b.isAnonymous; });
        scopes.atNamespaceScope[i] = allNs;
        scopes.inAnonNamespace[i] = anyAnon;

        std::string pending; // code on this line before the next brace
        for (char c : stripped[i]) {
            if (c == '{') {
                std::string context = trimmed(pending);
                if (context.empty())
                    context = prevCode;
                const bool isNs =
                    context == "namespace" ||
                    startsWith(context, "namespace ");
                stack.push_back({isNs, context == "namespace"});
                pending.clear();
            } else if (c == '}') {
                if (!stack.empty())
                    stack.pop_back();
                pending.clear();
            } else {
                pending.push_back(c);
            }
        }
        if (std::string rest = trimmed(pending); !rest.empty())
            prevCode = rest;
        else if (std::string whole = trimmed(stripped[i]);
                 !whole.empty())
            prevCode = whole;
    }
    return scopes;
}

/** Strip declaration-specifier prefixes; report whether one was `static`. */
std::string
stripDeclSpecifiers(std::string decl, bool *was_static = nullptr)
{
    bool changed = true;
    while (changed) {
        changed = false;
        for (const std::string prefix :
             {"static ", "inline ", "virtual ", "constexpr ",
              "friend ", "extern "}) {
            if (startsWith(decl, prefix)) {
                if (was_static != nullptr && prefix == "static ")
                    *was_static = true;
                decl = trimmed(decl.substr(prefix.size()));
                changed = true;
            }
        }
    }
    return decl;
}

/** Does `line` (or the line above) carry [[nodiscard]]? */
bool
nodiscardMarked(const std::vector<std::string> &stripped, std::size_t i)
{
    if (stripped[i].find("[[nodiscard]]") != std::string::npos)
        return true;
    return i > 0 &&
           stripped[i - 1].find("[[nodiscard]]") != std::string::npos;
}

/**
 * Function-declarator check for the .cc extension of nodiscard-result:
 * `text` is what follows a Result<...> return type.  Accepts
 * `name(...)` declarators; rejects out-of-line member definitions
 * (`Class::name`), operators, and local variable initializations.
 */
bool
looksLikeLocalDeclarator(const std::string &text)
{
    std::size_t i = 0;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
        ++i;
    const std::size_t name_begin = i;
    while (i < text.size() && isIdentChar(text[i]))
        ++i;
    if (i == name_begin)
        return false; // no identifier (e.g. "::" or an operator)
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
        ++i;
    // `name =` is a local variable; `name::` is an out-of-line member.
    return i < text.size() && text[i] == '(';
}

/** Column one past the matching '>' of a leading "Result<", or npos. */
std::size_t
resultTypeEnd(const std::string &decl)
{
    const std::size_t open = decl.find('<');
    if (open == std::string::npos)
        return std::string::npos;
    int depth = 0;
    for (std::size_t i = open; i < decl.size(); ++i) {
        if (decl[i] == '<')
            ++depth;
        else if (decl[i] == '>' && --depth == 0)
            return i + 1;
    }
    return std::string::npos;
}

void
checkNodiscardResult(const std::string &label,
                     const Suppressions &nolint,
                     const std::vector<std::string> &stripped,
                     std::vector<Finding> &findings)
{
    const bool is_header = endsWith(label, ".hh");
    const NamespaceScopes scopes =
        is_header ? NamespaceScopes{} : scanNamespaceScopes(stripped);

    for (std::size_t i = 0; i < stripped.size(); ++i) {
        bool is_static = false;
        std::string decl =
            stripDeclSpecifiers(trimmed(stripped[i]), &is_static);
        if (!startsWith(decl, "Result<") &&
            !startsWith(decl, "adrias::Result<"))
            continue;

        if (!is_header) {
            // In a .cc only file-local declarations are checked:
            // anonymous-namespace or `static` functions.  Functions
            // with external linkage are declared in a header, where
            // the header scope of this rule already applies.
            if (i >= scopes.atNamespaceScope.size() ||
                !scopes.atNamespaceScope[i])
                continue;
            if (!scopes.inAnonNamespace[i] && !is_static)
                continue;
            const std::size_t type_end = resultTypeEnd(decl);
            if (type_end == std::string::npos)
                continue;
            std::string declarator = trimmed(decl.substr(type_end));
            if (declarator.empty() && i + 1 < stripped.size())
                declarator = trimmed(stripped[i + 1]);
            if (!looksLikeLocalDeclarator(declarator))
                continue;
        }

        if (!nodiscardMarked(stripped, i) &&
            !nolint.suppressed(i, "nodiscard-result")) {
            findings.push_back(
                {label, i + 1, "nodiscard-result",
                 "Result-returning declaration without [[nodiscard]]: "
                 "callers could silently drop the error"});
        }
    }
}

void
checkFloatEqual(const std::string &label,
                const Suppressions &nolint,
                const std::vector<std::string> &stripped,
                std::vector<Finding> &findings)
{
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        const std::string &line = stripped[i];
        for (std::size_t p = 0; p + 1 < line.size(); ++p) {
            const bool eq = line[p] == '=' && line[p + 1] == '=';
            const bool ne = line[p] == '!' && line[p + 1] == '=';
            if (!eq && !ne)
                continue;
            // Not <=, >=, ==='s tail, or !== style fragments.
            if (p > 0 && (line[p - 1] == '<' || line[p - 1] == '>' ||
                          line[p - 1] == '=' || line[p - 1] == '!'))
                continue;
            if (p + 2 < line.size() && line[p + 2] == '=')
                continue;
            const std::string left = tokenLeftOf(line, p);
            const std::string right = tokenRightOf(line, p + 2);
            if ((isFloatLiteral(left) || isFloatLiteral(right)) &&
                !nolint.suppressed(i, "float-equal")) {
                findings.push_back(
                    {label, i + 1, "float-equal",
                     "floating-point " +
                         std::string(eq ? "==" : "!=") +
                         " against '" +
                         (isFloatLiteral(left) ? left : right) +
                         "': compare with a tolerance or an ordering"});
                break;
            }
        }
    }
}

void
checkIostreamInclude(const std::string &label,
                     const Suppressions &nolint,
                     const std::vector<std::string> &stripped,
                     std::vector<Finding> &findings)
{
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        const std::string &line = stripped[i];
        if (line.find("#include") != std::string::npos &&
            line.find("<iostream>") != std::string::npos &&
            !nolint.suppressed(i, "iostream-include")) {
            findings.push_back({label, i + 1, "iostream-include",
                                "library code logs through "
                                "common/logging.hh; <iostream> is "
                                "reserved for the logger backend"});
        }
    }
}

void
checkRawOfstream(const std::string &label,
                 const Suppressions &nolint,
                 const std::vector<std::string> &stripped,
                 std::vector<Finding> &findings)
{
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        for (const auto &[id, col] : identifiersIn(stripped[i])) {
            (void)col;
            if (id == "ofstream" &&
                !nolint.suppressed(i, "raw-ofstream")) {
                findings.push_back(
                    {label, i + 1, "raw-ofstream",
                     "'ofstream': persistence must go through "
                     "common/io/durable_file.hh (atomic temp-write + "
                     "rename) so a crash never leaves a torn file"});
                break;
            }
        }
    }
}

void
checkRawThread(const std::string &label,
               const Suppressions &nolint,
               const std::vector<std::string> &stripped,
               std::vector<Finding> &findings)
{
    static const std::set<std::string> kBannedAfterStd = {
        "thread", "jthread", "async"};
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        const std::string &line = stripped[i];
        if (line.find("#include") != std::string::npos &&
            (line.find("<thread>") != std::string::npos ||
             line.find("<future>") != std::string::npos) &&
            !nolint.suppressed(i, "raw-thread")) {
            findings.push_back(
                {label, i + 1, "raw-thread",
                 "raw threading header: all parallelism goes through "
                 "the deterministic ThreadPool (common/threadpool.hh)"});
            continue;
        }
        for (const auto &[id, col] : identifiersIn(line)) {
            if (!kBannedAfterStd.count(id))
                continue;
            // Only `std::thread`-style uses: require a `::` right
            // before the identifier so member names like `thread`
            // don't trip the rule.
            if (col < 2 || line[col - 1] != ':' || line[col - 2] != ':')
                continue;
            if (!nolint.suppressed(i, "raw-thread")) {
                findings.push_back(
                    {label, i + 1, "raw-thread",
                     "'std::" + id +
                         "': spawn work on the deterministic "
                         "ThreadPool (common/threadpool.hh), never "
                         "raw threads"});
                break;
            }
        }
    }
}

void
checkRawIntrinsics(const std::string &label,
                   const Suppressions &nolint,
                   const std::vector<std::string> &stripped,
                   std::vector<Finding> &findings)
{
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        const std::string &line = stripped[i];
        if (line.find("#include") != std::string::npos &&
            line.find("intrin.h") != std::string::npos &&
            !nolint.suppressed(i, "raw-intrinsics")) {
            findings.push_back(
                {label, i + 1, "raw-intrinsics",
                 "intrinsics header: raw SIMD lives only under the "
                 "src/ml/simd portability layer; call the batch "
                 "kernels in ml/simd.hh instead"});
            continue;
        }
        for (const auto &[id, col] : identifiersIn(line)) {
            (void)col;
            // _mm_/_mm256_/_mm512_ intrinsics and the __m128/__m256/
            // __m512 vector types (but not __m-prefixed identifiers
            // like __might_be_anything).
            const bool intrinsic = id.rfind("_mm", 0) == 0;
            const bool vecType =
                id.rfind("__m", 0) == 0 && id.size() > 3 &&
                std::isdigit(static_cast<unsigned char>(id[3]));
            if ((intrinsic || vecType) &&
                !nolint.suppressed(i, "raw-intrinsics")) {
                findings.push_back(
                    {label, i + 1, "raw-intrinsics",
                     "'" + id +
                         "': raw SIMD lives only under the src/ml/simd "
                         "portability layer (scalar fallback + runtime "
                         "dispatch); call the batch kernels in "
                         "ml/simd.hh instead"});
                break;
            }
        }
    }
}

void
checkKernelTier(const std::string &label,
                const Suppressions &nolint,
                const std::vector<std::string> &stripped,
                std::vector<Finding> &findings)
{
    const bool may_read = mayReadKernelTier(label);
    const bool may_pin = mayPinKernelTier(label);
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        const std::string &line = stripped[i];
        for (const auto &[id, col] : identifiersIn(line)) {
            std::string detail;
            if (id == "effectiveKernelTier" && !may_read) {
                // Calls only: a bare mention is not a dispatch.
                if (nextNonSpace(line, col + id.size()) != '(')
                    continue;
                detail = "'effectiveKernelTier()': only the kernels "
                         "with a vector twin (ml/matrix.cc, ml/lstm.cc) "
                         "pick a kernel";
            } else if ((id == "ScopedKernelTier" ||
                        id == "setKernelTier") &&
                       !may_pin) {
                detail = "'" + id +
                         "': only the training entry points "
                         "(models/system_state.cc, "
                         "models/performance.cc) pin a kernel tier; "
                         "src/ml picks the kernel";
            } else {
                continue;
            }
            if (!nolint.suppressed(i, "kernel-tier")) {
                findings.push_back(
                    {label, i + 1, "kernel-tier", std::move(detail)});
                break;
            }
        }
    }
}

} // namespace

const std::vector<RuleInfo> &
rules()
{
    static const std::vector<RuleInfo> kRules = {
        {"raw-rand",
         "all randomness flows through common/rng.hh (src, tests, "
         "bench; rng.{hh,cc} exempt)"},
        {"wall-clock",
         "no wall/CPU clock reads in sim code (src, tests)"},
        {"unordered-container",
         "no std::unordered_{map,set} in src/testbed, src/scenario, "
         "src/core (iteration-order nondeterminism)"},
        {"nodiscard-result",
         "Result<...>-returning declarations in src headers and "
         ".cc-local (static/anonymous-namespace) functions carry "
         "[[nodiscard]]"},
        {"float-equal",
         "no ==/!= against floating-point literals in src"},
        {"iostream-include",
         "no #include <iostream> in src outside common/logging.cc"},
        {"raw-ofstream",
         "no raw std::ofstream persistence in src; write through the "
         "DurableFile layer (common/io)"},
        {"raw-thread",
         "no std::thread/std::async in src outside "
         "common/threadpool.*; parallelism goes through the "
         "deterministic ThreadPool"},
        {"raw-intrinsics",
         "no immintrin.h/__m256/_mm256_* outside src/ml/simd* (src, "
         "tests, bench); SIMD goes through the portability layer"},
        {"kernel-tier",
         "in src, effectiveKernelTier() is called only in "
         "ml/{matrix,lstm}.cc and ml/simd*, and "
         "ScopedKernelTier/setKernelTier appear only in ml/simd* and "
         "the two model training entry points"},
    };
    return kRules;
}

std::vector<Finding>
lintContent(const std::string &label, const std::string &content)
{
    const std::vector<std::string> raw = splitLines(content);
    const std::vector<std::string> stripped =
        stripCommentsAndStrings(raw);
    const Suppressions nolint(raw);

    std::vector<Finding> findings;
    if (inRandScope(label))
        checkRawRand(label, nolint, stripped, findings);
    if (inWallClockScope(label))
        checkWallClock(label, nolint, stripped, findings);
    if (inUnorderedScope(label))
        checkUnordered(label, nolint, stripped, findings);
    if (inNodiscardScope(label))
        checkNodiscardResult(label, nolint, stripped, findings);
    if (inFloatEqualScope(label))
        checkFloatEqual(label, nolint, stripped, findings);
    if (inIostreamScope(label))
        checkIostreamInclude(label, nolint, stripped, findings);
    if (inOfstreamScope(label))
        checkRawOfstream(label, nolint, stripped, findings);
    if (inRawThreadScope(label))
        checkRawThread(label, nolint, stripped, findings);
    if (inIntrinsicsScope(label))
        checkRawIntrinsics(label, nolint, stripped, findings);
    if (inKernelTierScope(label))
        checkKernelTier(label, nolint, stripped, findings);

    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.line < b.line;
                     });
    return findings;
}

std::vector<Finding>
lintFile(const std::string &path, const std::string &label)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return {{label, 0, "io", "cannot open " + path}};
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return lintContent(label, buffer.str());
}

std::vector<Finding>
lintTree(const std::string &repo_root)
{
    namespace fs = std::filesystem;

    std::vector<std::pair<std::string, std::string>> files; // label, path
    for (const char *top : {"src", "tests", "bench"}) {
        const fs::path base = fs::path(repo_root) / top;
        if (!fs::exists(base))
            continue;
        for (const auto &entry : fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext != ".cc" && ext != ".hh")
                continue;
            std::string label =
                fs::relative(entry.path(), repo_root).generic_string();
            if (label.find("fixtures/") != std::string::npos)
                continue; // deliberately violating self-test inputs
            files.emplace_back(std::move(label), entry.path().string());
        }
    }
    std::sort(files.begin(), files.end());

    std::vector<Finding> findings;
    for (const auto &[label, path] : files) {
        std::vector<Finding> file_findings = lintFile(path, label);
        findings.insert(findings.end(),
                        std::make_move_iterator(file_findings.begin()),
                        std::make_move_iterator(file_findings.end()));
    }
    return findings;
}

std::string
formatFinding(const Finding &finding)
{
    return finding.file + ":" + std::to_string(finding.line) + ": [" +
           finding.rule + "] " + finding.detail;
}

} // namespace adrias::lint
