#include "analyze/index.hh"

#include <algorithm>
#include <cctype>

#include "lint/source.hh"

namespace adrias::analyze
{

namespace
{

using lint::identifiersIn;
using lint::isIdentChar;
using lint::splitLines;
using lint::startsWith;
using lint::stripCommentsAndStrings;
using lint::trimmed;

/**
 * The flattened, stripped text of one file plus the scanning cursor
 * machinery.  Preprocessor lines are blanked so #if/#include never
 * look like statements.
 */
struct Scanner
{
    std::string text;             ///< '\n'-joined stripped lines
    std::vector<std::size_t> lineStart;

    explicit Scanner(const std::string &content)
    {
        std::vector<std::string> raw = splitLines(content);
        std::vector<std::string> stripped = stripCommentsAndStrings(raw);
        bool continued = false; // previous pp line ended with backslash
        for (std::size_t i = 0; i < stripped.size(); ++i) {
            const std::string t = trimmed(raw[i]);
            const bool pp = continued || (!t.empty() && t[0] == '#');
            continued = pp && !t.empty() && t.back() == '\\';
            lineStart.push_back(text.size());
            text += pp ? std::string(stripped[i].size(), ' ')
                       : stripped[i];
            text += '\n';
        }
    }

    /** 0-based line of a text position. */
    std::size_t
    lineOf(std::size_t pos) const
    {
        std::size_t line = 0;
        for (std::size_t i = 1; i < lineStart.size(); ++i) {
            if (lineStart[i] > pos)
                break;
            line = i;
        }
        return line;
    }
};

/** Last non-space character of `s`, or '\0'. */
char
lastNonSpace(const std::string &s)
{
    for (std::size_t i = s.size(); i-- > 0;) {
        if (!std::isspace(static_cast<unsigned char>(s[i])))
            return s[i];
    }
    return '\0';
}

/** Is `token` an ADRIAS_* annotation macro name (all caps)? */
bool
isAnnotationMacro(const std::string &token)
{
    if (!startsWith(token, "ADRIAS_"))
        return false;
    return std::all_of(token.begin(), token.end(), [](char c) {
        return (std::isupper(static_cast<unsigned char>(c)) != 0) ||
               c == '_' || (std::isdigit(static_cast<unsigned char>(c)) != 0);
    });
}

/** Annotation flags found on one declaration. */
struct Annotations
{
    bool guarded = false;
    bool notCheckpointed = false;
    bool lockFree = false;
};

/**
 * Remove ADRIAS_* macro invocations (and bare macro tokens) from a
 * declaration, recording the waiver/guard flags they carry.
 */
std::string
removeAnnotationMacros(const std::string &decl, Annotations &flags)
{
    std::string out;
    std::size_t i = 0;
    while (i < decl.size()) {
        if (isIdentChar(decl[i]) &&
            !std::isdigit(static_cast<unsigned char>(decl[i])) &&
            (i == 0 || !isIdentChar(decl[i - 1]))) {
            std::size_t end = i;
            while (end < decl.size() && isIdentChar(decl[end]))
                ++end;
            const std::string token = decl.substr(i, end - i);
            if (isAnnotationMacro(token)) {
                if (token == "ADRIAS_GUARDED_BY" ||
                    token == "ADRIAS_PT_GUARDED_BY")
                    flags.guarded = true;
                else if (token == "ADRIAS_NOT_CHECKPOINTED")
                    flags.notCheckpointed = true;
                else if (token == "ADRIAS_LOCK_FREE")
                    flags.lockFree = true;
                i = end;
                // Swallow the macro's balanced argument list, if any.
                while (i < decl.size() &&
                       std::isspace(static_cast<unsigned char>(decl[i])))
                    ++i;
                if (i < decl.size() && decl[i] == '(') {
                    int depth = 0;
                    do {
                        if (decl[i] == '(')
                            ++depth;
                        else if (decl[i] == ')')
                            --depth;
                        ++i;
                    } while (i < decl.size() && depth > 0);
                }
                continue;
            }
            out += token;
            i = end;
            continue;
        }
        out += decl[i];
        ++i;
    }
    return out;
}

/** Strip leading access labels ("public:", "private:", ...). */
std::string
stripAccessLabels(std::string decl)
{
    for (;;) {
        decl = trimmed(decl);
        bool stripped_one = false;
        for (const std::string label : {"public", "private", "protected"}) {
            if (!startsWith(decl, label))
                continue;
            std::size_t at = label.size();
            while (at < decl.size() &&
                   std::isspace(static_cast<unsigned char>(decl[at])))
                ++at;
            if (at < decl.size() && decl[at] == ':' &&
                (at + 1 >= decl.size() || decl[at + 1] != ':')) {
                decl = decl.substr(at + 1);
                stripped_one = true;
                break;
            }
        }
        if (!stripped_one)
            return decl;
    }
}

/** Position of the first '(' at angle-bracket depth 0, or npos. */
std::size_t
topLevelParen(const std::string &decl)
{
    int angle = 0;
    for (std::size_t i = 0; i < decl.size(); ++i) {
        const char c = decl[i];
        if (c == '<')
            ++angle;
        else if (c == '>' && angle > 0)
            --angle;
        else if (c == '(' && angle == 0)
            return i;
    }
    return std::string::npos;
}

/** The identifier ending right before `pos` (skipping spaces and ~). */
std::string
identifierBefore(const std::string &decl, std::size_t pos)
{
    std::size_t end = pos;
    while (end > 0 &&
           std::isspace(static_cast<unsigned char>(decl[end - 1])))
        --end;
    std::size_t begin = end;
    while (begin > 0 && isIdentChar(decl[begin - 1]))
        --begin;
    return decl.substr(begin, end - begin);
}

/** First identifier token of `text`, or "". */
std::string
firstIdentifier(const std::string &text)
{
    const auto ids = identifiersIn(text);
    return ids.empty() ? std::string() : ids.front().first;
}

/** Does the token list contain `token`? */
bool
hasToken(const std::string &text, const std::string &token)
{
    for (const auto &[id, col] : identifiersIn(text)) {
        (void)col;
        if (id == token)
            return true;
    }
    return false;
}

/**
 * `h` without a leading `template <...>` parameter list; "" when the
 * list never closes.
 */
std::string
withoutTemplateHeader(const std::string &h)
{
    if (!startsWith(h, "template"))
        return h;
    int depth = 0;
    for (std::size_t i = h.find('<'); i < h.size(); ++i) {
        if (h[i] == '<')
            ++depth;
        else if (h[i] == '>' && --depth == 0)
            return trimmed(h.substr(i + 1));
    }
    return "";
}

/**
 * Parse a class head: "template<...>? (class|struct) Name : bases".
 * `specialization` reports an explicit specialization ("struct
 * hash<Key>"), which code reaches through its primary template.
 */
bool
parseClassHead(const std::string &head, std::string &name,
               std::vector<std::string> &bases, bool &specialization)
{
    Annotations ignored;
    // Templates of classes are indexed like plain classes (parameters
    // don't matter to the passes).
    std::string h =
        withoutTemplateHeader(trimmed(removeAnnotationMacros(head, ignored)));
    const bool isClass = startsWith(h, "class ") || h == "class";
    const bool isStruct = startsWith(h, "struct ") || h == "struct";
    if (!isClass && !isStruct)
        return false;
    h = trimmed(h.substr(isClass ? 5 : 6));

    const auto ids = identifiersIn(h);
    if (ids.empty())
        return false;
    name = ids.front().first;
    const std::size_t after =
        h.find_first_not_of(' ', ids.front().second + name.size());
    specialization = after != std::string::npos && h[after] == '<';

    // Base clause: the ':' that is not part of a '::'.
    std::size_t colon = std::string::npos;
    for (std::size_t i = 0; i < h.size(); ++i) {
        if (h[i] != ':')
            continue;
        if ((i + 1 < h.size() && h[i + 1] == ':') ||
            (i > 0 && h[i - 1] == ':')) {
            continue;
        }
        colon = i;
        break;
    }
    if (colon != std::string::npos) {
        std::string clause = h.substr(colon + 1);
        std::string segment;
        int angle = 0;
        auto flush = [&]() {
            const auto segIds = identifiersIn(segment);
            for (std::size_t k = segIds.size(); k-- > 0;) {
                const std::string &id = segIds[k].first;
                if (id != "public" && id != "protected" &&
                    id != "private" && id != "virtual") {
                    bases.push_back(id);
                    break;
                }
            }
            segment.clear();
        };
        for (char c : clause) {
            if (c == '<')
                ++angle;
            else if (c == '>')
                --angle;
            if (c == ',' && angle == 0)
                flush();
            else
                segment.push_back(c);
        }
        flush();
    }
    return true;
}

/** Remove a top-level trailing "= ..." initializer. */
std::string
removeInitializer(const std::string &decl)
{
    int angle = 0;
    int paren = 0;
    for (std::size_t i = 0; i < decl.size(); ++i) {
        const char c = decl[i];
        if (c == '<')
            ++angle;
        else if (c == '>' && angle > 0)
            --angle;
        else if (c == '(')
            ++paren;
        else if (c == ')')
            --paren;
        else if (c == '=' && angle == 0 && paren == 0) {
            const char prev = i > 0 ? decl[i - 1] : '\0';
            const char next = i + 1 < decl.size() ? decl[i + 1] : '\0';
            if (prev != '=' && prev != '!' && prev != '<' &&
                prev != '>' && next != '=')
                return decl.substr(0, i);
        }
    }
    return decl;
}

/** Remove top-level [...] array extents. */
std::string
removeArrayExtents(const std::string &decl)
{
    std::string out;
    int depth = 0;
    for (char c : decl) {
        if (c == '[') {
            ++depth;
            continue;
        }
        if (c == ']') {
            if (depth > 0)
                --depth;
            continue;
        }
        if (depth == 0)
            out.push_back(c);
    }
    return out;
}

const std::set<std::string> kSkipStatementKeywords = {
    "using",  "typedef", "friend",    "static_assert",
    "class",  "struct",  "enum",      "namespace",
    "public", "private", "protected", "template",
};

/** The per-file parser; results are merged into the Index afterwards. */
class FileParser
{
  public:
    FileParser(const SourceFile &file, Index &index)
        : label(file.label), scanner(file.content), out(index)
    {
    }

    void
    run()
    {
        std::size_t pos = 0;
        statementBegin(pos);
        while (pos < scanner.text.size())
            step(pos);
    }

  private:
    /** One open scope: a namespace, an indexed class, or opaque. */
    struct Scope
    {
        enum class Kind
        {
            Namespace,
            Class,
            Opaque,
        };
        Kind kind = Kind::Opaque;
        std::size_t classIndex = 0; ///< into `classes` when Class
        std::string nsName;         ///< "adrias::obs" when Namespace
        static constexpr std::size_t kNoExtent = static_cast<std::size_t>(-1);
        std::size_t extentIndex = kNoExtent; ///< into `extents`, if any
    };

    std::string label;
    Scanner scanner;
    Index &out;

    std::vector<Scope> scopes;
    std::string stmt;
    std::size_t stmtLine = 0; ///< 0-based line the statement began on
    bool stmtStarted = false;

    void
    statementBegin(std::size_t pos)
    {
        stmt.clear();
        stmtStarted = false;
        (void)pos;
    }

    bool
    inClass() const
    {
        return !scopes.empty() &&
               scopes.back().kind == Scope::Kind::Class;
    }

    /** Qualified name of the innermost enclosing class, or "". */
    std::string
    enclosingClass() const
    {
        return inClass() ? out.classes[scopes.back().classIndex].name
                         : std::string();
    }

    void
    addExtent(const std::string &name, const std::string &owner,
              bool isClass, std::size_t line, std::size_t endLine)
    {
        out.extents.push_back({name, owner, isClass, label, line + 1,
                               endLine + 1});
    }

    /**
     * `class Name;` / `template <...> struct Name;`: a forward
     * declaration is the class's own text, not a use of it.
     * @return true when `head` was one.
     */
    bool
    recordForwardDeclaration(const std::string &head, std::size_t line,
                             std::size_t endLine)
    {
        const std::string h = withoutTemplateHeader(head);
        const auto ids = identifiersIn(h);
        if (ids.size() != 2 ||
            (ids[0].first != "class" && ids[0].first != "struct") ||
            h.find_first_of(":(=") != std::string::npos)
            return false;
        addExtent(ids[1].first, enclosingClass(), true, line, endLine);
        return true;
    }

    /** Qualified name prefix of the current scope stack. */
    std::string
    qualifiedPrefix() const
    {
        std::string prefix;
        for (const Scope &scope : scopes) {
            if (scope.kind == Scope::Kind::Namespace &&
                !scope.nsName.empty()) {
                if (!prefix.empty())
                    prefix += "::";
                prefix += scope.nsName;
            } else if (scope.kind == Scope::Kind::Class) {
                // Class names are stored fully qualified already.
                prefix = out.classes[scope.classIndex].name;
            }
        }
        return prefix;
    }

    /**
     * Consume a balanced {...} starting at `pos` (which points at the
     * '{').  @return the text between the braces, newlines preserved.
     */
    std::string
    slurpBraces(std::size_t &pos)
    {
        int depth = 0;
        const std::size_t open = pos;
        while (pos < scanner.text.size()) {
            const char c = scanner.text[pos];
            if (c == '{')
                ++depth;
            else if (c == '}' && --depth == 0) {
                ++pos;
                return scanner.text.substr(open + 1, pos - open - 2);
            }
            ++pos;
        }
        return scanner.text.substr(open + 1);
    }

    void
    step(std::size_t &pos)
    {
        const char c = scanner.text[pos];
        if (c == '{') {
            handleOpenBrace(pos);
            return;
        }
        if (c == '}') {
            if (!scopes.empty()) {
                if (scopes.back().extentIndex != Scope::kNoExtent)
                    out.extents[scopes.back().extentIndex].endLine =
                        scanner.lineOf(pos) + 1;
                scopes.pop_back();
            }
            ++pos;
            statementBegin(pos);
            return;
        }
        if (c == ';') {
            if (inClass())
                parseClassStatement(stmt, stmtLine, scanner.lineOf(pos));
            else
                parseNamespaceStatement(stmt, stmtLine, scanner.lineOf(pos));
            ++pos;
            statementBegin(pos);
            return;
        }
        if (!stmtStarted &&
            !std::isspace(static_cast<unsigned char>(c))) {
            stmtStarted = true;
            stmtLine = scanner.lineOf(pos);
        }
        stmt.push_back(c);
        ++pos;
    }

    void
    handleOpenBrace(std::size_t &pos)
    {
        const char tail = lastNonSpace(stmt);
        // An initializer brace inside a statement ("= {...}", default
        // arguments, nested list elements): swallow it and keep the
        // statement going.
        if (tail == '=' || tail == ',' || tail == '(' || tail == '<') {
            slurpBraces(pos);
            stmt += "{}";
            return;
        }

        const std::string head = trimmed(stripAccessLabels(stmt));
        std::string name;
        std::vector<std::string> bases;
        bool specialization = false;

        if (parseClassHead(head, name, bases, specialization)) {
            const std::string prefix = qualifiedPrefix();
            Class cls;
            cls.name = prefix.empty() ? name : prefix + "::" + name;
            cls.file = label;
            cls.line = stmtLine + 1;
            cls.bases = bases;
            // endLine is set when the class scope closes.  A
            // specialization is no entity of its own name.
            std::size_t extent = Scope::kNoExtent;
            if (!specialization) {
                addExtent(name, enclosingClass(), true, stmtLine, stmtLine);
                extent = out.extents.size() - 1;
            }
            out.classes.push_back(std::move(cls));
            scopes.push_back({Scope::Kind::Class, out.classes.size() - 1,
                              "", extent});
            ++pos;
            statementBegin(pos);
            return;
        }
        if (head == "namespace" || startsWith(head, "namespace ") ||
            startsWith(head, "inline namespace")) {
            // "namespace adrias::obs" -> "adrias::obs"; anonymous
            // namespaces contribute nothing to qualified names.
            std::string nsName;
            for (const auto &[id, col] : identifiersIn(head)) {
                (void)col;
                if (id == "namespace" || id == "inline")
                    continue;
                if (!nsName.empty())
                    nsName += "::";
                nsName += id;
            }
            scopes.push_back({Scope::Kind::Namespace, 0, nsName});
            ++pos;
            statementBegin(pos);
            return;
        }
        if (startsWith(head, "enum ") || head == "enum") {
            slurpBraces(pos);
            statementBegin(pos);
            return;
        }

        Annotations flags;
        const std::string cleaned =
            trimmed(removeAnnotationMacros(head, flags));
        const std::size_t paren = topLevelParen(cleaned);
        if (paren == std::string::npos) {
            // Member/global brace initialization without '=':
            // `std::atomic<uint64_t> value{0};` — swallow the braces,
            // finish the statement on the following ';'.
            slurpBraces(pos);
            stmt += "{}";
            return;
        }

        // A function body.  Record it: as an inline method when we
        // are inside a class, as an (out-of-line or free) function at
        // namespace scope.
        const std::size_t bodyLine = scanner.lineOf(pos);
        const std::string fnName = identifierBefore(cleaned, paren);
        std::string body = slurpBraces(pos);
        const std::size_t endLine =
            bodyLine + static_cast<std::size_t>(
                           std::count(body.begin(), body.end(), '\n'));

        if (inClass()) {
            addExtent(fnName, enclosingClass(), false, stmtLine, endLine);
            Method method;
            method.name = fnName;
            method.head = cleaned;
            method.body = std::move(body);
            method.file = label;
            method.line = stmtLine + 1;
            method.bodyLine = bodyLine + 1;
            method.isStatic = hasToken(cleaned.substr(0, paren), "static");
            out.classes[scopes.back().classIndex].methods.push_back(
                std::move(method));
        } else {
            // Walk the "A::B::name" qualifier chain left of the name.
            std::string className;
            std::size_t end = paren;
            while (end > 0 && std::isspace(static_cast<unsigned char>(
                                  cleaned[end - 1])))
                --end;
            end -= fnName.size();
            std::vector<std::string> qualifiers;
            while (end >= 2 && cleaned[end - 1] == ':' &&
                   cleaned[end - 2] == ':') {
                end -= 2;
                const std::string qualifier =
                    identifierBefore(cleaned, end);
                if (qualifier.empty())
                    break;
                qualifiers.push_back(qualifier);
                end -= qualifier.size();
            }
            for (std::size_t i = qualifiers.size(); i-- > 0;) {
                if (!className.empty())
                    className += "::";
                className += qualifiers[i];
            }
            // Qualify with the enclosing namespace blocks so
            // `Histogram::add` in `namespace adrias::obs { ... }`
            // matches adrias::obs::Histogram, not a same-named class
            // in another namespace.
            if (!className.empty()) {
                const std::string prefix = qualifiedPrefix();
                if (!prefix.empty())
                    className = prefix + "::" + className;
            }
            addExtent(fnName, className, false, stmtLine, endLine);
            Function fn;
            fn.className = className;
            fn.name = fnName;
            fn.head = cleaned;
            fn.body = std::move(body);
            fn.file = label;
            fn.line = stmtLine + 1;
            fn.bodyLine = bodyLine + 1;
            out.functions.push_back(std::move(fn));
        }
        statementBegin(pos);
    }

    /**
     * A namespace-scope statement: only bodiless function declarations
     * and forward class declarations are recorded, as extents.
     */
    void
    parseNamespaceStatement(const std::string &raw_stmt, std::size_t line,
                            std::size_t endLine)
    {
        const std::string head = trimmed(raw_stmt);
        if (head.empty() || recordForwardDeclaration(head, line, endLine))
            return;
        const std::string first = firstIdentifier(head);
        if (first != "template" && kSkipStatementKeywords.count(first))
            return;
        Annotations ignored;
        const std::string cleaned =
            trimmed(removeAnnotationMacros(head, ignored));
        const std::size_t paren = topLevelParen(cleaned);
        // A '(' after a top-level '=' is an initializer, not a
        // parameter list.
        if (paren == std::string::npos ||
            removeInitializer(cleaned).size() <= paren)
            return;
        const std::string name = identifierBefore(cleaned, paren);
        if (!name.empty())
            addExtent(name, "", false, line, endLine);
    }

    void
    parseClassStatement(const std::string &raw_stmt, std::size_t line,
                        std::size_t endLine)
    {
        const std::string labeled = trimmed(stripAccessLabels(raw_stmt));
        if (labeled.empty() ||
            recordForwardDeclaration(labeled, line, endLine))
            return;
        const std::string first = firstIdentifier(labeled);
        if (kSkipStatementKeywords.count(first))
            return;

        Annotations flags;
        std::string cleaned =
            trimmed(removeAnnotationMacros(labeled, flags));
        if (cleaned.empty())
            return;

        Class &cls = out.classes[scopes.back().classIndex];
        const std::size_t paren = topLevelParen(cleaned);
        if (paren != std::string::npos) {
            // Method declaration without an inline body.
            Method method;
            method.name = identifierBefore(cleaned, paren);
            method.head = cleaned;
            method.file = label;
            method.line = line + 1;
            method.isStatic =
                hasToken(cleaned.substr(0, paren), "static");
            if (!method.name.empty()) {
                addExtent(method.name, cls.name, false, line, endLine);
                cls.methods.push_back(std::move(method));
            }
            return;
        }

        // Data member.
        cleaned = trimmed(removeInitializer(cleaned));
        cleaned = trimmed(removeArrayExtents(cleaned));
        const auto ids = identifiersIn(cleaned);
        if (ids.size() < 2)
            return; // needs at least a type and a name
        Member member;
        member.name = ids.back().first;
        member.type = trimmed(cleaned.substr(0, ids.back().second));
        member.file = label;
        member.line = line + 1;
        member.isStatic = hasToken(member.type, "static");
        member.isConst = hasToken(member.type, "const") ||
                         hasToken(member.type, "constexpr");
        member.isMutable = hasToken(member.type, "mutable");
        member.isReference = member.type.find('&') != std::string::npos;
        member.guarded = flags.guarded;
        member.notCheckpointed = flags.notCheckpointed;
        member.lockFree = flags.lockFree;
        cls.members.push_back(std::move(member));
    }
};

} // namespace

const Class *
Index::findClass(const std::string &name) const
{
    for (const Class &cls : classes) {
        if (cls.name == name)
            return &cls;
    }
    // Unqualified lookup: unique suffix match ("Watcher" finds
    // "adrias::telemetry::Watcher").
    const Class *match = nullptr;
    for (const Class &cls : classes) {
        if (!lint::endsWith(cls.name, "::" + name))
            continue;
        if (match != nullptr)
            return nullptr; // ambiguous
        match = &cls;
    }
    return match;
}

std::string
Index::mergedBodies(const Class &cls,
                    const std::set<std::string> &names) const
{
    std::string merged;
    for (const Method &method : cls.methods) {
        if (names.count(method.name) && !method.body.empty()) {
            merged += method.body;
            merged += '\n';
        }
    }
    for (const Function &fn : functions) {
        if (fn.className == cls.name && names.count(fn.name)) {
            merged += fn.body;
            merged += '\n';
        }
    }
    return merged;
}

std::string
Index::transitiveBodies(const Class &cls,
                        const std::set<std::string> &names) const
{
    std::set<std::string> included = names;
    std::string merged = mergedBodies(cls, included);
    for (;;) {
        const std::set<std::string> ids = identifierSet(merged);
        std::set<std::string> next = included;
        for (const Method &method : cls.methods) {
            if (ids.count(method.name))
                next.insert(method.name);
        }
        if (next == included)
            return merged;
        included = std::move(next);
        merged = mergedBodies(cls, included);
    }
}

std::set<std::string>
identifierSet(const std::string &text)
{
    std::set<std::string> ids;
    for (const std::string &line : splitLines(text)) {
        for (const auto &[id, col] : identifiersIn(line)) {
            (void)col;
            ids.insert(id);
        }
    }
    return ids;
}

Index
buildIndex(const std::vector<SourceFile> &files)
{
    Index index;
    for (const SourceFile &file : files) {
        FileParser parser(file, index);
        parser.run();
    }

    // Merge same-named classes (declaration split across #if branches
    // or re-opened in another file) into the first occurrence.
    std::vector<Class> merged;
    for (Class &cls : index.classes) {
        Class *existing = nullptr;
        for (Class &m : merged) {
            if (m.name == cls.name) {
                existing = &m;
                break;
            }
        }
        if (existing == nullptr) {
            merged.push_back(std::move(cls));
            continue;
        }
        for (Member &member : cls.members) {
            const bool duplicate = std::any_of(
                existing->members.begin(), existing->members.end(),
                [&](const Member &m) { return m.name == member.name; });
            if (!duplicate)
                existing->members.push_back(std::move(member));
        }
        for (Method &method : cls.methods)
            existing->methods.push_back(std::move(method));
    }
    index.classes = std::move(merged);
    return index;
}

} // namespace adrias::analyze
