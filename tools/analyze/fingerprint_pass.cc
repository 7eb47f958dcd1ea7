#include "analyze.hh"

#include <cctype>
#include <regex>

namespace graphene {
namespace analyze {

namespace {

/**
 * Reduce a parameter's declared type text to its unqualified class
 * name: "const schemes::SchemeSpec &" -> "SchemeSpec". Returns ""
 * for non-class-ish types (templates, built-ins keep their spelling
 * and simply miss the struct registry).
 */
std::string
baseTypeName(std::string type)
{
    for (const char *word : {"const ", "struct ", "class "}) {
        std::size_t pos;
        while ((pos = type.find(word)) != std::string::npos)
            type.erase(pos, std::string(word).size());
    }
    const auto trimmable = [](char c) {
        return c == '&' || c == '*' ||
               std::isspace(static_cast<unsigned char>(c)) != 0;
    };
    while (!type.empty() && trimmable(type.back()))
        type.pop_back();
    while (!type.empty() &&
           std::isspace(static_cast<unsigned char>(type.front())))
        type.erase(type.begin());
    const std::size_t colons = type.rfind("::");
    if (colons != std::string::npos)
        type = type.substr(colons + 2);
    static const std::regex ident(R"(^[A-Za-z_]\w*$)");
    if (!std::regex_match(type, ident))
        return "";
    return type;
}

/** One (type, name) pair from a parameter list. */
struct Param
{
    std::string type;
    std::string name;
};

/** Split a parameter-list text on top-level commas. */
std::vector<Param>
parseParams(const std::string &params)
{
    std::vector<std::string> pieces;
    std::string cur;
    int angle = 0;
    for (const char c : params) {
        if (c == '<')
            ++angle;
        else if (c == '>')
            --angle;
        if (c == ',' && angle == 0) {
            pieces.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        pieces.push_back(cur);

    static const std::regex last_ident(
        R"(([A-Za-z_]\w*)\s*(?:=[^,]*)?$)");
    std::vector<Param> out;
    for (const auto &piece : pieces) {
        std::smatch m;
        if (!std::regex_search(piece, m, last_ident))
            continue;
        Param p;
        p.name = m[1].str();
        p.type = piece.substr(
            0, static_cast<std::size_t>(m.position(1)));
        out.push_back(std::move(p));
    }
    return out;
}

/** Element type of "std::vector<T>" / "vector<T>"; "" otherwise. */
std::string
vectorElement(const std::string &type)
{
    static const std::regex vec(
        R"(^(?:std\s*::\s*)?vector\s*<\s*(.+?)\s*>$)");
    std::smatch m;
    if (!std::regex_match(type, m, vec))
        return "";
    return baseTypeName(m[1].str());
}

/**
 * True when the bare instance is handed to another call — the callee
 * adder owns the field coverage and is audited on its own.
 */
bool
delegated(const std::string &body, const std::string &name)
{
    const std::regex pass(R"([(,]\s*&?)" + name + R"(\s*[,)])");
    return std::regex_search(body, pass);
}

/** `analyze: fp-exempt(field)` anywhere in raw lines [from..to]. */
bool
exemptInRange(const std::vector<std::string> &raw, unsigned from,
              unsigned to, const std::string &field)
{
    const std::string marker = "analyze: fp-exempt(" + field + ")";
    for (unsigned i = from; i <= to && i <= raw.size(); ++i)
        if (i >= 1 &&
            raw[i - 1].find(marker) != std::string::npos)
            return true;
    return false;
}

struct AuditContext
{
    const Corpus *corpus;
    const SourceFile *file; ///< file holding the adder function
    const ScannedFunction *func;
    std::string body; ///< the function body text
    unsigned funcLine;
    unsigned bodyEndLine;
};

/**
 * Check every field of @p def against the adder in @p ctx: a field
 * must be referenced as `name.field` / `name->field` somewhere in
 * the body, or carry an fp-exempt waiver (at its declaration site or
 * inside the adder).
 */
void
auditInstance(const AuditContext &ctx, const std::string &name,
              const StructDef &def, std::vector<Finding> &findings)
{
    const SourceFile &decl_file =
        ctx.corpus->files[def.fileIndex];
    for (const auto &field : def.fields) {
        const std::regex ref(R"(\b)" + name +
                             R"(\s*(?:\.|->)\s*)" + field.name +
                             R"(\b)");
        if (std::regex_search(ctx.body, ref))
            continue;
        if (suppressed(
                decl_file.raw, field.line - 1,
                "analyze: fp-exempt(" + field.name + ")"))
            continue;
        if (exemptInRange(ctx.file->raw, ctx.funcLine,
                          ctx.bodyEndLine, field.name))
            continue;
        findings.push_back(
            {ctx.file->rel, ctx.funcLine, "fingerprint-completeness",
             "field '" + field.name + "' of struct '" + def.name +
                 "' (" + decl_file.rel + ":" +
                 std::to_string(field.line) +
                 ") is not folded into the fingerprint in '" +
                 ctx.func->name +
                 "': two specs differing only in this field would "
                 "alias to one cache entry; hash it or waive with "
                 "'analyze: fp-exempt(" +
                 field.name + ")' plus a rationale",
             "error"});
    }
}

} // namespace

void
runFingerprintPass(const Corpus &corpus,
                   std::vector<Finding> &findings)
{
    const std::map<std::string, StructDef> registry =
        buildStructRegistry(corpus);

    // An adder is any function that builds a Fingerprint: either it
    // takes one by reference or it declares one locally.
    static const std::regex fp_param(R"(\bFingerprint\s*&)");
    static const std::regex fp_local(
        R"(\bFingerprint\s+[A-Za-z_]\w*\s*;)");
    static const std::regex ranged_for(
        R"(for\s*\(\s*(?:const\s+)?auto\s*&?\s*([A-Za-z_]\w*)\s*:\s*([A-Za-z_]\w*)\s*\.\s*([A-Za-z_]\w*)\s*\))");

    for (const std::size_t fi : corpus.srcFiles) {
        const SourceFile &file = corpus.files[fi];
        for (const ScannedFunction &func : scanFunctions(file.joined)) {
            const std::string body = file.joined.substr(
                func.bodyBegin, func.bodyEnd - func.bodyBegin);
            if (!std::regex_search(func.params, fp_param) &&
                !std::regex_search(body, fp_local))
                continue;

            AuditContext ctx;
            ctx.corpus = &corpus;
            ctx.file = &file;
            ctx.func = &func;
            ctx.body = body;
            ctx.funcLine = file.lineOf(func.nameOffset);
            ctx.bodyEndLine = file.lineOf(func.bodyEnd);

            // Audited instances: struct-typed parameters...
            std::map<std::string, const StructDef *> audited;
            for (const Param &p : parseParams(func.params)) {
                const std::string base = baseTypeName(p.type);
                if (base.empty() || base == "Fingerprint")
                    continue;
                const auto it = registry.find(base);
                if (it == registry.end())
                    continue;
                if (delegated(body, p.name))
                    continue;
                audited[p.name] = &it->second;
            }
            // ...plus ranged-for element loops over their
            // vector-of-struct fields (addWorkloadFields iterates
            // workload.coreParams).
            std::map<std::string, const StructDef *> loop_vars;
            auto begin = std::sregex_iterator(body.begin(),
                                              body.end(),
                                              ranged_for);
            for (auto it = begin; it != std::sregex_iterator();
                 ++it) {
                const std::string var = (*it)[1].str();
                const std::string inst = (*it)[2].str();
                const std::string member = (*it)[3].str();
                const auto owner = audited.find(inst);
                if (owner == audited.end())
                    continue;
                for (const auto &field : owner->second->fields) {
                    if (field.name != member)
                        continue;
                    const std::string elem =
                        vectorElement(field.type);
                    const auto elem_it = registry.find(elem);
                    if (elem_it != registry.end())
                        loop_vars[var] = &elem_it->second;
                }
            }

            for (const auto &[name, def] : audited)
                auditInstance(ctx, name, *def, findings);
            for (const auto &[name, def] : loop_vars)
                auditInstance(ctx, name, *def, findings);
        }
    }
}

} // namespace analyze
} // namespace graphene
