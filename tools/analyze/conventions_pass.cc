#include "analyze.hh"

#include <cctype>
#include <regex>

namespace graphene {
namespace analyze {

namespace {

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/** Append a @p rule finding at line @p i unless a waiver covers it. */
void
report(const SourceFile &file, std::size_t i, const std::string &rule,
       const std::string &message, std::vector<Finding> &findings)
{
    if (!allowMarker(file.raw, i, rule))
        findings.push_back(
            {file.rel, static_cast<unsigned>(i + 1), rule, message});
}

/**
 * A rule that is one regex per stripped line: it fires on every
 * matching line of a file whose path starts with none of `exempt`.
 */
struct LineRule
{
    std::string rule;
    std::vector<std::string> exempt;
    std::regex pattern;
    std::string message;
};

const std::vector<LineRule> &
lineRules()
{
    static const std::vector<LineRule> rules = {
        // common/random wraps the one sanctioned engine.
        {"nondeterministic-rng",
         {"src/common/random"},
         std::regex(
             R"(\bstd::rand\b|\bsrand\s*\(|(?:^|[^:\w])rand\s*\(\s*\)|)"
             R"(\brandom_device\b|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\))"),
         "std::rand / std::random_device / time-seeded RNG "
         "breaks reproducibility; use graphene::Rng from "
         "common/random.hh with an explicit seed"},
        {"float-type",
         {},
         std::regex(R"(\bfloat\b)"),
         "'float' is banned: physical quantities are double (or "
         "integral strong types); single precision drifts past "
         "the reproduction tolerances"},
        // The logging/error/contract machinery implements the calls.
        // A call site: fatal( / panic(, optionally ::graphene::
        // qualified, not a longer identifier (unwrapOrFatal) and not
        // a member access.
        {"boundary-fatal",
         {"src/common/logging", "src/common/error",
          "src/check/contracts"},
         std::regex(
             R"((?:^|[^:\w.])(?:::graphene::\s*)?(?:fatal|panic)\s*\()"),
         "fatal()/panic() in library code: return a typed "
         "Result/Error for bad external input, or use "
         "GRAPHENE_CHECK for internal invariants; process exits "
         "belong only in CLI/bench main() boundaries "
         "(DESIGN.md §9)"},
        // The exp:: work-stealing pool is the one sanctioned thread
        // owner, so every parallel code path inherits the determinism
        // contract (DESIGN.md §10).
        {"raw-thread",
         {"src/exp/"},
         std::regex(R"(\bstd::(?:thread|jthread|async)\b)"),
         "direct std::thread/jthread/async outside src/exp/: "
         "route parallelism through exp::Pool so results stay "
         "deterministic for every jobs count (DESIGN.md §10)"},
        // common/logging is the sanctioned implementation. Word
        // boundaries keep snprintf/strprintf/vsnprintf out; cerr is
        // deliberately allowed (progress lines, warnings).
        {"direct-logging",
         {"src/common/logging"},
         std::regex(
             R"(\bstd::cout\b|\bprintf\s*\(|\bfprintf\s*\(|\bputs\s*\()"),
         "library code writes to stdout (std::cout / printf "
         "family): report through an obs:: probe or "
         "common/logging and let the CLI/bench boundary own the "
         "output stream"},
    };
    return rules;
}

void
checkLineRules(const SourceFile &file, std::vector<Finding> &findings)
{
    for (const LineRule &r : lineRules()) {
        bool exempt = false;
        for (const auto &prefix : r.exempt)
            exempt = exempt || startsWith(file.rel, prefix);
        if (exempt)
            continue;
        for (std::size_t i = 0; i < file.code.size(); ++i)
            if (std::regex_search(file.code[i], r.pattern))
                report(file, i, r.rule, r.message, findings);
    }
}

/** Lowercase and drop underscores: RowId, row_id, rowid all match. */
std::string
normalize(const std::string &ident)
{
    std::string n;
    for (char c : ident)
        if (c != '_')
            n += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    return n;
}

/**
 * Identifier heuristic for raw-domain-type: names that denote one of
 * the typed domain quantities. Curated to be precise on this tree:
 * counts-of-things (rowsPerBank, numRows, maxEntries...) are
 * legitimately raw integers and must not fire.
 */
bool
isDomainName(const std::string &ident)
{
    const std::string n = normalize(ident);
    static const std::set<std::string> exact = {
        "cycle",       "curcycle",   "currentcycle", "startcycle",
        "endcycle",    "row",        "rowid",        "aggressorrow",
        "victimrow",   "openrow",    "hotrow",       "addr",
        "address",     "physaddr",   "bankid",       "actcount",
        "actscount",   "refwindow",  "resetwindow",
    };
    if (exact.count(n))
        return true;
    // Counts, sizes and within-unit indices stay raw: "rows",
    // "...perrow", "numrow...", "lineinrow" (an offset, not a row).
    if (n.find("per") != std::string::npos ||
        n.find("num") != std::string::npos || endsWith(n, "rows") ||
        endsWith(n, "cycles") || endsWith(n, "count") ||
        endsWith(n, "inrow"))
        return false;
    return endsWith(n, "cycle") || endsWith(n, "row") ||
           endsWith(n, "rowid") || endsWith(n, "addr") ||
           endsWith(n, "bankid");
}

void
checkRawDomainType(const SourceFile &file,
                   std::vector<Finding> &findings)
{
    // types.hh defines the strong types in terms of the raw reps.
    if (file.rel == "src/common/types.hh")
        return;
    static const std::regex decl(
        R"((?:\bstd::)?\buint(?:32|64)_t\b\s*(?:const\s+)?[&*]?\s*)"
        R"(([A-Za-z_]\w*))");
    static const std::regex more(R"(^\s*,\s*([A-Za-z_]\w*))");
    for (std::size_t i = 0; i < file.code.size(); ++i) {
        const std::string &line = file.code[i];
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            decl);
             it != std::sregex_iterator(); ++it) {
            std::vector<std::string> idents = {(*it)[1].str()};
            std::string rest = it->suffix().str();
            std::smatch m;
            while (std::regex_search(rest, m, more)) {
                idents.push_back(m[1].str());
                rest = m.suffix().str();
            }
            for (const auto &ident : idents)
                if (isDomainName(ident))
                    report(file, i, "raw-domain-type",
                           "'" + ident +
                               "' holds a domain quantity but is "
                               "declared as a raw integer; use the "
                               "strong type from common/types.hh "
                               "(Cycle, Row, BankId, Addr, ActCount, "
                               "RefWindow)",
                           findings);
        }
    }
}

/** Names declared as std::unordered_map<...> anywhere in @p file. */
std::set<std::string>
unorderedMapNames(const SourceFile &file)
{
    static const std::string kw = "unordered_map";
    std::set<std::string> names;
    for (const auto &line : file.code) {
        for (std::size_t pos = line.find(kw); pos != std::string::npos;
             pos = line.find(kw, pos + 1)) {
            std::size_t j = pos + kw.size();
            while (j < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[j])))
                ++j;
            if (j >= line.size() || line[j] != '<')
                continue;
            for (int depth = 0; j < line.size(); ++j) {
                if (line[j] == '<')
                    ++depth;
                else if (line[j] == '>' && --depth == 0) {
                    ++j;
                    break;
                }
            }
            while (j < line.size() &&
                   (std::isspace(static_cast<unsigned char>(line[j])) ||
                    line[j] == '&'))
                ++j;
            std::string ident;
            while (j < line.size() &&
                   (std::isalnum(static_cast<unsigned char>(line[j])) ||
                    line[j] == '_'))
                ident += line[j++];
            if (!ident.empty())
                names.insert(ident);
        }
    }
    return names;
}

void
checkUnorderedMapIteration(const SourceFile &file,
                           std::vector<Finding> &findings)
{
    if (!startsWith(file.rel, "src/core/") &&
        !startsWith(file.rel, "src/schemes/"))
        return;
    for (const auto &name : unorderedMapNames(file)) {
        // Ranged-for or begin()-iteration over the map.
        const std::regex ranged(R"(for\s*\([^;)]*:\s*(?:this->)?)" +
                                name + R"(\s*\))");
        for (std::size_t i = 0; i < file.code.size(); ++i) {
            const std::string &line = file.code[i];
            if (!std::regex_search(line, ranged) &&
                line.find(name + ".begin()") == std::string::npos &&
                line.find(name + ".cbegin()") == std::string::npos)
                continue;
            report(file, i, "unordered-map-iteration",
                   "iteration over std::unordered_map '" + name +
                       "' in a tracker/scheme hot path can make "
                       "results order-dependent; audit the loop and "
                       "mark it '// analyze: "
                       "allow(unordered-map-iteration)' or use an "
                       "ordered container",
                   findings);
        }
    }
}

void
checkContractMacroInclude(const SourceFile &file,
                          std::vector<Finding> &findings)
{
    if (!endsWith(file.rel, ".hh") ||
        file.rel == "src/check/contracts.hh")
        return;
    // The include's path is a string literal, stripped from `code`:
    // read it from the raw line.
    for (std::size_t i = 0; i < file.code.size(); ++i)
        if (file.code[i].find("#include") != std::string::npos &&
            i < file.raw.size() &&
            file.raw[i].find("check/contracts.hh") != std::string::npos)
            return;
    static const std::regex macro(
        R"(\bGRAPHENE_(?:EXPECTS|ENSURES|INVARIANT|CHECK)\s*\()");
    // A file *defining* the macro family is its own authority.
    static const std::regex define(R"(^\s*#\s*define\s+GRAPHENE_)");
    for (std::size_t i = 0; i < file.code.size(); ++i)
        if (std::regex_search(file.code[i], macro) &&
            !std::regex_search(file.code[i], define))
            report(file, i, "contract-macro-include",
                   "header uses a GRAPHENE_* contract macro without "
                   "including check/contracts.hh itself; transitive "
                   "includes break under contracts-off builds",
                   findings);
}

} // namespace

void
runConventionsPass(const Corpus &corpus,
                   std::vector<Finding> &findings)
{
    for (const std::size_t fi : corpus.srcFiles) {
        const SourceFile &file = corpus.files[fi];
        checkRawDomainType(file, findings);
        checkUnorderedMapIteration(file, findings);
        checkContractMacroInclude(file, findings);
        checkLineRules(file, findings);
    }
}

} // namespace analyze
} // namespace graphene
