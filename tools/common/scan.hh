/**
 * @file
 * Shared scanner utilities for the repo's static-analysis tools
 * (tools/lint/graphene_lint, tools/analyze/graphene_analyze).
 *
 * Both tools work at the token/regex level (deliberately no libclang
 * dependency) and share the same mechanics: walk a file tree, strip
 * comments and string literals while preserving line structure, look
 * up suppression markers on the raw text, and report findings in one
 * machine-readable shape. This library is that common substrate;
 * each tool keeps only its rules.
 *
 * Buildable with a bare C++17 toolchain (CI compiles the tools with
 * plain g++, no CMake), so nothing here may depend on src/.
 */

#ifndef TOOLS_COMMON_SCAN_HH
#define TOOLS_COMMON_SCAN_HH

#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

namespace graphene {
namespace toolscan {

/** One reported defect. `severity` is "error" (affects the exit
 *  status) or "warning" (reported, never fatal). */
struct Finding
{
    std::string file;
    unsigned line = 0;
    std::string rule;
    std::string message;
    std::string severity = "error";
};

/**
 * Remove comments and string/character literal contents while
 * preserving line structure, so rule regexes never fire on prose.
 * Raw string literals (R"delim(...)delim") and preprocessor-disabled
 * `#if 0` regions are stripped too — both can hold arbitrary
 * code-shaped text that must never reach a rule. Raw lines are kept
 * separately (rawLines) for marker lookup.
 */
std::vector<std::string> stripLines(const std::string &text);

/** Split @p text into lines verbatim. */
std::vector<std::string> rawLines(const std::string &text);

/** Read a whole file; false (and untouched @p out) when unreadable. */
bool readFile(const std::filesystem::path &path, std::string &out);

/** True when line @p i or the line directly above carries @p marker. */
bool suppressed(const std::vector<std::string> &raw, std::size_t i,
                const std::string &marker);

/**
 * True when a `<tool>: allow(<rule>)` waiver covers line @p i (the
 * line itself or the one above), e.g. allowMarker(raw, i, "lint",
 * "float-type") matches "lint: allow(float-type)".
 */
bool allowMarker(const std::vector<std::string> &raw, std::size_t i,
                 const std::string &tool, const std::string &rule);

/** True when @p s ends with @p suffix. */
bool endsWith(const std::string &s, const std::string &suffix);

/** True when @p p's generic path contains @p needle. */
bool pathContains(const std::filesystem::path &p,
                  const std::string &needle);

/** True for the C++ source extensions the tools scan. */
bool lintableExtension(const std::filesystem::path &p);

/**
 * Expand files and directory trees into a sorted list of scannable
 * C++ sources. Unknown paths report to stderr under @p tool_name and
 * are skipped. Paths with a component named "fixtures" are excluded
 * from directory walks (known-bad corpora), unless the argument
 * itself points inside one.
 */
std::vector<std::filesystem::path>
collectFiles(const std::vector<std::string> &args,
             const std::string &tool_name);

/** JSON string escaping (quotes included in the return value). */
std::string jsonQuote(const std::string &s);

/**
 * The one machine-readable findings shape both tools emit:
 *   {"tool":"<name>","findings":[{"file":...,"line":N,"rule":...,
 *    "message":...,"severity":...}],"errors":N,"warnings":N}
 * Findings are written in the given order.
 */
void writeFindingsJson(std::ostream &os, const std::string &tool,
                       const std::vector<Finding> &findings);

/** Render one finding as the human-readable single-line report. */
std::string formatFinding(const Finding &f);

// ---- function-definition extraction ---------------------------------
//
// Token-level (deliberately not a C++ parser): good enough to find
// "which functions exist and where their bodies are", which is what
// the analyze passes need. Operates on comment/string-stripped text
// joined with '\n' so literals and disabled regions never fabricate
// definitions.

/** One function definition found in stripped text. */
struct ScannedFunction
{
    /** Name as written, possibly qualified ("Cache::addressOf"). */
    std::string name;

    /** Parameter-list text between the parens. */
    std::string params;

    std::size_t nameOffset = 0; ///< Offset of the name in the text.
    std::size_t bodyBegin = 0;  ///< Offset just past the '{'.
    std::size_t bodyEnd = 0;    ///< Offset of the matching '}'.
};

/** Unqualified tail of @p name ("Cache::addressOf" -> "addressOf"). */
std::string unqualifiedName(const std::string &name);

/**
 * Offset of the '}' matching the '{' at @p open_brace;
 * std::string::npos when unbalanced.
 */
std::size_t matchBrace(const std::string &text,
                       std::size_t open_brace);

/**
 * Scan stripped text for function definitions: free functions,
 * out-of-line member definitions, and in-class bodies. Control
 * keywords (if/for/while/switch/catch) are skipped. Not a parser —
 * heavily-templated signatures or parens inside parameter defaults
 * may be missed, which the repo's conventions avoid.
 */
std::vector<ScannedFunction> scanFunctions(const std::string &text);

/** Count of findings with severity "error". */
std::size_t errorCount(const std::vector<Finding> &findings);

} // namespace toolscan
} // namespace graphene

#endif // TOOLS_COMMON_SCAN_HH
