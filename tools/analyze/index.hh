/**
 * @file
 * Lightweight cross-file C++ declaration indexer — the foundation of
 * the tools/analyze semantic passes (DESIGN.md §13).
 *
 * No libclang: the indexer is a brace/statement scanner over the same
 * comment/string-stripped view of the source the lint uses
 * (tools/lint/source.hh).  It recovers the declarations the passes
 * need — classes and structs, their non-static data members (with
 * types and the project annotation macros), member function
 * declarations with inline bodies, out-of-line member function
 * bodies from any file, and the line extent of every declaration and
 * definition — and merges them across the whole tree, so a
 * pass can ask "is member `nextId` of class `ScenarioEngine`
 * referenced inside `ScenarioEngine::saveState`?" even though the
 * class lives in engine.hh and the body in engine.cc.
 *
 * Deliberate simplifications (documented, fixture-covered):
 *  - classes are keyed by namespace-qualified name (built from the
 *    enclosing `namespace` blocks) and merged across files; findClass
 *    also resolves unique unqualified suffixes.
 *  - bodies are captured as flat stripped text; references are
 *    identifier-presence checks, not data flow.
 *  - preprocessor conditionals are not evaluated; every branch is
 *    indexed (a member only visible under #if is still a member).
 */

#ifndef ADRIAS_TOOLS_ANALYZE_INDEX_HH
#define ADRIAS_TOOLS_ANALYZE_INDEX_HH

#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace adrias::analyze
{

/** One input translation unit (repo-relative label + full text). */
struct SourceFile
{
    std::string label;
    std::string content;
};

/** One non-static-or-static data member of an indexed class. */
struct Member
{
    std::string name;
    /** Declaration text left of the name (specifiers + type). */
    std::string type;
    std::string file;
    std::size_t line = 0; ///< 1-based line of the declaration

    bool isStatic = false;
    bool isConst = false;
    bool isMutable = false;
    bool isReference = false;

    /** ADRIAS_GUARDED_BY / ADRIAS_PT_GUARDED_BY present. */
    bool guarded = false;
    /** ADRIAS_NOT_CHECKPOINTED waiver present. */
    bool notCheckpointed = false;
    /** ADRIAS_LOCK_FREE waiver present. */
    bool lockFree = false;
};

/** A member function: declaration, plus body when defined inline. */
struct Method
{
    std::string name;
    /** Declaration head text (return type, params, qualifiers). */
    std::string head;
    /** Stripped body text, newlines preserved; "" when not inline. */
    std::string body;
    std::string file;
    std::size_t line = 0;     ///< declaration line
    std::size_t bodyLine = 0; ///< line the body's '{' is on (0: none)
    bool isStatic = false;
};

/** An indexed class or struct. */
struct Class
{
    std::string name; ///< qualified: "adrias::obs::Tracer::Event"
    std::string file;
    std::size_t line = 0;
    std::vector<std::string> bases;
    std::vector<Member> members;
    std::vector<Method> methods;
};

/** An out-of-line function body ("Class::name" or a free function). */
struct Function
{
    std::string className; ///< "" for free functions
    std::string name;
    std::string head;
    std::string body;
    std::string file;
    std::size_t line = 0;
    std::size_t bodyLine = 0;
};

/**
 * The lines one declaration or definition of a named entity occupies:
 * a class from its head to its closing brace, a function or method
 * from its head to the end of its body (or to the ';' of a bodiless
 * declaration), a forward declaration's one statement.  Not merged:
 * every occurrence in every file is its own extent.
 */
struct Extent
{
    std::string name;  ///< unqualified: "Histogram", "add"
    std::string owner; ///< qualified enclosing class; "" at namespace scope
    bool isClass = false;
    std::string file;
    std::size_t line = 0;    ///< first line, 1-based
    std::size_t endLine = 0; ///< last line, inclusive
};

/** The merged declaration index of a file set. */
struct Index
{
    std::vector<Class> classes;      ///< declaration order, merged
    std::vector<Function> functions; ///< every out-of-line/free body
    std::vector<Extent> extents;     ///< file order, one per occurrence

    /** @return the class named `name`, or nullptr. */
    const Class *findClass(const std::string &name) const;

    /**
     * Merged bodies of every method of `cls` whose name is in
     * `names`: inline bodies plus out-of-line definitions from any
     * indexed file.  Overloads are concatenated.
     */
    std::string mergedBodies(const Class &cls,
                             const std::set<std::string> &names) const;

    /**
     * mergedBodies closed over same-class calls: starting from
     * `names`, any method of `cls` whose name appears as an
     * identifier in the accumulated text is merged in, to a fixed
     * point.  This is how `saveState` bodies that delegate to
     * `exportState()` still count the members the helper touches.
     */
    std::string transitiveBodies(const Class &cls,
                                 const std::set<std::string> &names) const;
};

/** Parse and merge a set of files into one declaration index. */
Index buildIndex(const std::vector<SourceFile> &files);

/** All identifiers of `text` as a set (for reference queries). */
std::set<std::string> identifierSet(const std::string &text);

} // namespace adrias::analyze

#endif // ADRIAS_TOOLS_ANALYZE_INDEX_HH
