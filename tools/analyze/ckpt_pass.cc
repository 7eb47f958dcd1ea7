/**
 * @file
 * ckpt-completeness: every checkpointed class saves and restores all
 * of its state, or says why not.
 *
 * A class is "checkpointed" when the corpus defines
 * `X::saveState(ckpt::Writer&)` or `X::restoreState(ckpt::Reader&)`
 * (DESIGN.md §14). For each such class the pass parses the class
 * body and requires every depth-1 `_`-prefixed data member to be
 * referenced in BOTH the save and the restore body — a member
 * missing from saveState is state silently dropped across a
 * kill-and-resume; a member missing from restoreState is a restore
 * that leaves part of the object at its constructed default, the
 * exact bug class the checkpoint subsystem exists to prevent.
 * Delegation counts: `_rank.saveState(w)` references `_rank`.
 *
 * Deliberately unserialized members (construction-time config,
 * derived caches, transient scratch) carry an explicit waiver
 *
 *     analyze: ckpt-exempt(_member)
 *
 * at the declaration site (same line or the line above) or anywhere
 * inside the save/restore function, with a rationale.
 *
 * The pass also flags a one-sided pair: a class defining saveState
 * without restoreState produces checkpoints nothing can load, and
 * the reverse restores bytes nothing writes.
 */

#include "analyze.hh"

#include <regex>

namespace graphene {
namespace analyze {

namespace {

/** A parsed class/struct definition holding `_`-prefixed members. */
struct CkptClass
{
    std::size_t fileIndex = 0;
    unsigned line = 0;

    struct Member
    {
        std::string name;
        unsigned line = 0; ///< 1-based declaration line
    };
    std::vector<Member> members;
};

/** One side of a save/restore pair found in the corpus. */
struct StateFn
{
    bool found = false;
    std::size_t fileIndex = 0;
    unsigned line = 0;
    unsigned endLine = 0;
    std::string body;
};

/** Both sides, keyed by unqualified class name. */
struct CkptPair
{
    StateFn save;
    StateFn restore;
};

/**
 * Extract depth-1 `_`-prefixed data members from a class body.
 * Unlike the fingerprint pass's struct-field parser this must keep
 * statements containing parens — `Row _openRow = Row::invalid();`
 * and function-typed members are everyday declarations here — so it
 * instead looks for a `_`-identifier in declarator position: the
 * last word of the statement once any initializer is accounted for.
 */
void
parseMembers(const SourceFile &file, std::size_t body_begin,
             std::size_t body_end, CkptClass &def)
{
    static const std::regex skip(
        R"(^\s*(?:using|typedef|friend|static|public|private|)"
        R"(protected|enum|struct|class|template|return)\b)");
    // The declared name: a `_`-identifier bounded by type syntax on
    // the left and either the end of the declaration, an `=`
    // initializer, a brace initializer, or an array extent on the
    // right. A method named `_helper(...)` is followed by '(' and
    // never matches.
    static const std::regex member(
        R"((?:^|[\s&*>])(_[A-Za-z0-9_]*)\s*(?:$|=|\{|\[))");

    const std::string &text = file.joined;
    int depth = 1;
    std::size_t stmt_start = body_begin;
    for (std::size_t i = body_begin; i < body_end; ++i) {
        const char c = text[i];
        if (c == '{') {
            ++depth;
        } else if (c == '}') {
            --depth;
            // An in-class method body ends a pseudo-statement; a
            // brace initializer keeps its ';'.
            if (depth == 1 &&
                (i + 1 >= body_end || text[i + 1] != ';'))
                stmt_start = i + 1;
        } else if (c == ';' && depth == 1) {
            std::string stmt =
                text.substr(stmt_start, i - stmt_start);
            const std::size_t stmt_off = stmt_start;
            stmt_start = i + 1;
            // Cut a leading access label ("private:") — the last
            // ':' not part of '::'.
            std::size_t colon = std::string::npos;
            for (std::size_t k = 0; k < stmt.size(); ++k) {
                if (stmt[k] != ':')
                    continue;
                const bool dbl =
                    (k + 1 < stmt.size() && stmt[k + 1] == ':') ||
                    (k > 0 && stmt[k - 1] == ':');
                if (!dbl)
                    colon = k;
            }
            if (colon != std::string::npos)
                stmt = stmt.substr(colon + 1);
            if (std::regex_search(stmt, skip))
                continue;
            std::smatch m;
            if (!std::regex_search(stmt, m, member))
                continue;
            CkptClass::Member mem;
            mem.name = m[1].str();
            // Locate the name in the ORIGINAL statement text — the
            // access-label cut above shifted positions within `stmt`.
            mem.line = file.lineOf(
                stmt_off +
                text.substr(stmt_off, i - stmt_off).rfind(mem.name));
            def.members.push_back(std::move(mem));
        }
    }
}

/**
 * Every `class X { ... }` / `struct X { ... }` in src/, with its
 * `_`-members. Ambiguous unqualified names are dropped — the pass
 * must not audit the wrong class's members.
 */
std::map<std::string, CkptClass>
buildClassRegistry(const Corpus &corpus)
{
    std::map<std::string, CkptClass> registry;
    std::set<std::string> ambiguous;
    // The name may be followed by a base-clause before the '{'.
    static const std::regex decl(
        R"(\b(?:class|struct)\s+([A-Za-z_]\w*)\s*(?::[^;{]*)?\{)");

    for (const std::size_t fi : corpus.srcFiles) {
        const SourceFile &file = corpus.files[fi];
        const std::string &text = file.joined;
        auto begin =
            std::sregex_iterator(text.begin(), text.end(), decl);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            const std::smatch &m = *it;
            const std::size_t open = static_cast<std::size_t>(
                m.position(0) + m.length(0) - 1);
            const std::size_t close = matchBrace(text, open);
            if (close == std::string::npos)
                continue;
            CkptClass def;
            def.fileIndex = fi;
            def.line = file.lineOf(
                static_cast<std::size_t>(m.position(1)));
            parseMembers(file, open + 1, close, def);
            const std::string name = m[1].str();
            if (registry.count(name) &&
                registry[name].fileIndex != fi)
                ambiguous.insert(name);
            registry[name] = std::move(def);
        }
    }
    for (const auto &name : ambiguous)
        registry.erase(name);
    return registry;
}

/** `analyze: ckpt-exempt(member)` in raw lines [from..to] (1-based). */
bool
exemptInRange(const std::vector<std::string> &raw, unsigned from,
              unsigned to, const std::string &member)
{
    const std::string marker = "analyze: ckpt-exempt(" + member + ")";
    for (unsigned i = from; i <= to && i <= raw.size(); ++i)
        if (i >= 1 && raw[i - 1].find(marker) != std::string::npos)
            return true;
    return false;
}

bool
exemptInFn(const Corpus &corpus, const StateFn &fn,
           const std::string &member)
{
    if (!fn.found)
        return false;
    return exemptInRange(corpus.files[fn.fileIndex].raw, fn.line,
                         fn.endLine, member);
}

} // namespace

void
runCkptPass(const Corpus &corpus, std::vector<Finding> &findings)
{
    // Pass 1: collect X::saveState / X::restoreState definitions.
    std::map<std::string, CkptPair> pairs;
    for (const std::size_t fi : corpus.srcFiles) {
        const SourceFile &file = corpus.files[fi];
        for (const ScannedFunction &func : scanFunctions(file.joined)) {
            const std::size_t sep = func.name.rfind("::");
            if (sep == std::string::npos)
                continue;
            const std::string method = func.name.substr(sep + 2);
            if (method != "saveState" && method != "restoreState")
                continue;
            std::string cls = func.name.substr(0, sep);
            const std::size_t outer = cls.rfind("::");
            if (outer != std::string::npos)
                cls = cls.substr(outer + 2);
            StateFn fn;
            fn.found = true;
            fn.fileIndex = fi;
            fn.line = file.lineOf(func.nameOffset);
            fn.endLine = file.lineOf(func.bodyEnd);
            fn.body = file.joined.substr(
                func.bodyBegin, func.bodyEnd - func.bodyBegin);
            if (method == "saveState")
                pairs[cls].save = std::move(fn);
            else
                pairs[cls].restore = std::move(fn);
        }
    }
    if (pairs.empty())
        return;

    const std::map<std::string, CkptClass> classes =
        buildClassRegistry(corpus);

    for (const auto &[cls, pair] : pairs) {
        const StateFn &anchor =
            pair.save.found ? pair.save : pair.restore;
        const SourceFile &anchor_file =
            corpus.files[anchor.fileIndex];

        // A one-sided pair is unusable no matter what it covers.
        if (!pair.save.found || !pair.restore.found) {
            const char *has =
                pair.save.found ? "saveState" : "restoreState";
            const char *lacks =
                pair.save.found ? "restoreState" : "saveState";
            findings.push_back(
                {anchor_file.rel, anchor.line, "ckpt-completeness",
                 "class '" + cls + "' defines " + has +
                     " but no matching " + lacks +
                     ": checkpoints must round-trip — define the "
                     "inverse with the same field order",
                 "error"});
            continue;
        }

        const auto cit = classes.find(cls);
        if (cit == classes.end())
            continue; // definition outside src/ or ambiguous
        const CkptClass &def = cit->second;
        const SourceFile &decl_file = corpus.files[def.fileIndex];

        for (const auto &member : def.members) {
            const std::regex ref(R"(\b)" + member.name + R"(\b)");
            const bool saved =
                std::regex_search(pair.save.body, ref);
            const bool restored =
                std::regex_search(pair.restore.body, ref);
            if (saved && restored)
                continue;
            if (suppressed(
                    decl_file.raw, member.line - 1,
                    "analyze: ckpt-exempt(" + member.name + ")"))
                continue;
            if (exemptInFn(corpus, pair.save, member.name) ||
                exemptInFn(corpus, pair.restore, member.name))
                continue;
            const std::string where =
                !saved && !restored
                    ? "neither saveState nor restoreState"
                    : (!saved ? "saveState (it is restored — reading "
                                "bytes nothing writes)"
                              : "restoreState (it is saved — state "
                                "dropped on resume)");
            findings.push_back(
                {decl_file.rel, member.line, "ckpt-completeness",
                 "member '" + member.name + "' of checkpointed "
                     "class '" + cls + "' is not referenced in " +
                     where +
                     ": a kill-and-resume would silently diverge; "
                     "serialize it in both, or waive with "
                     "'analyze: ckpt-exempt(" +
                     member.name + ")' plus a rationale",
                 "error"});
        }
    }
}

} // namespace analyze
} // namespace graphene
