#include "scan.hh"

#include <cctype>
#include <fstream>
#include <ostream>
#include <regex>
#include <set>
#include <sstream>

namespace graphene {
namespace analyze {

namespace fs = std::filesystem;

std::vector<std::string>
stripLines(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    enum class State
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char,
    };
    State state = State::Code;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (state) {
          case State::Code:
            if (c == '/' && next == '/') {
                state = State::LineComment;
                ++i;
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                ++i;
            } else if (c == 'R' && next == '"' &&
                       (i == 0 ||
                        (!std::isalnum(static_cast<unsigned char>(
                             text[i - 1])) &&
                         text[i - 1] != '_'))) {
                // Raw string literal R"delim( ... )delim": contents
                // may hold quotes, comment markers, and code-shaped
                // text; skip to the closing sequence, preserving
                // newlines.
                std::size_t k = i + 2;
                std::string delim;
                while (k < text.size() && text[k] != '(' &&
                       text[k] != '"' && delim.size() < 16)
                    delim += text[k++];
                if (k >= text.size() || text[k] != '(') {
                    out += c; // not a raw literal after all
                    break;
                }
                const std::string closer = ")" + delim + "\"";
                const std::size_t close =
                    text.find(closer, k + 1);
                out += "\"\"";
                const std::size_t stop =
                    close == std::string::npos
                        ? text.size()
                        : close + closer.size();
                for (std::size_t j = i; j < stop; ++j)
                    if (text[j] == '\n')
                        out += '\n';
                i = stop - 1;
            } else if (c == '"') {
                state = State::String;
                out += '"';
            } else if (c == '\'') {
                state = State::Char;
                out += '\'';
            } else {
                out += c;
            }
            break;
          case State::LineComment:
            if (c == '\n') {
                state = State::Code;
                out += '\n';
            }
            break;
          case State::BlockComment:
            if (c == '*' && next == '/') {
                state = State::Code;
                ++i;
            } else if (c == '\n') {
                out += '\n';
            }
            break;
          case State::String:
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                state = State::Code;
                out += '"';
            } else if (c == '\n') {
                out += '\n'; // unterminated; stay permissive
            }
            break;
          case State::Char:
            if (c == '\\') {
                ++i;
            } else if (c == '\'') {
                state = State::Code;
                out += '\'';
            } else if (c == '\n') {
                out += '\n';
            }
            break;
        }
    }
    std::vector<std::string> lines;
    std::istringstream ss(out);
    std::string line;
    while (std::getline(ss, line))
        lines.push_back(line);

    // Preprocessor-disabled regions: blank everything from `#if 0`
    // to its matching `#else`/`#elif`/`#endif` (the #else branch IS
    // compiled, so scanning resumes there). Nested conditionals
    // inside the dead region are tracked only to find the match.
    static const std::regex if0(R"(^\s*#\s*if\s+0\b)");
    static const std::regex anyIf(
        R"(^\s*#\s*if(?:def|ndef)?\b)");
    static const std::regex elseOrElif(
        R"(^\s*#\s*el(?:se|if)\b)");
    static const std::regex endif(R"(^\s*#\s*endif\b)");
    int dead_depth = 0;
    for (auto &l : lines) {
        if (dead_depth == 0) {
            if (std::regex_search(l, if0)) {
                dead_depth = 1;
                l.clear();
            }
            continue;
        }
        const bool opens = std::regex_search(l, anyIf);
        const bool closes = std::regex_search(l, endif);
        const bool flips =
            dead_depth == 1 && std::regex_search(l, elseOrElif);
        l.clear();
        if (opens)
            ++dead_depth;
        else if (closes)
            --dead_depth;
        else if (flips)
            dead_depth = 0;
    }
    return lines;
}

std::vector<std::string>
rawLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream ss(text);
    std::string line;
    while (std::getline(ss, line))
        lines.push_back(line);
    return lines;
}

bool
readFile(const fs::path &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

bool
suppressed(const std::vector<std::string> &raw, std::size_t i,
           const std::string &marker)
{
    if (i < raw.size() && raw[i].find(marker) != std::string::npos)
        return true;
    return i > 0 && raw[i - 1].find(marker) != std::string::npos;
}

bool
allowMarker(const std::vector<std::string> &raw, std::size_t i,
            const std::string &rule)
{
    return suppressed(raw, i, "analyze: allow(" + rule + ")");
}

namespace {

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

} // namespace

void
writeFindingsJson(std::ostream &os,
                  const std::vector<Finding> &findings)
{
    std::size_t errors = 0, warnings = 0;
    for (const auto &f : findings)
        (f.severity == "warning" ? warnings : errors) += 1;
    os << "{\"tool\":\"graphene_analyze\",\"findings\":[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        if (i)
            os << ",";
        os << "{\"file\":" << jsonQuote(f.file)
           << ",\"line\":" << f.line
           << ",\"rule\":" << jsonQuote(f.rule)
           << ",\"severity\":" << jsonQuote(f.severity)
           << ",\"message\":" << jsonQuote(f.message) << "}";
    }
    os << "],\"errors\":" << errors << ",\"warnings\":" << warnings
       << "}\n";
}

std::string
unqualifiedName(const std::string &name)
{
    const std::size_t colons = name.rfind("::");
    return colons == std::string::npos ? name
                                       : name.substr(colons + 2);
}

std::size_t
matchBrace(const std::string &text, std::size_t open_brace)
{
    int depth = 0;
    for (std::size_t i = open_brace; i < text.size(); ++i) {
        if (text[i] == '{')
            ++depth;
        else if (text[i] == '}' && --depth == 0)
            return i;
    }
    return std::string::npos;
}

std::vector<ScannedFunction>
scanFunctions(const std::string &text)
{
    // name(params) [const] [noexcept] [-> x] [override/final] {   —
    // token level; the params must not contain ';', braces, or
    // nested parens.
    static const std::regex head(
        R"(([A-Za-z_~][\w:]*)\s*\(([^;{}()]*)\)\s*)"
        R"((?:const\b\s*)?(?:noexcept\b\s*)?(?:->\s*[\w:<>&\s]+)?)"
        R"((?:override\b\s*)?(?:final\b\s*)?\{)");
    static const std::set<std::string> keywords = {
        "if", "for", "while", "switch", "catch", "return"};

    std::vector<ScannedFunction> out;
    auto begin = std::sregex_iterator(text.begin(), text.end(), head);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
        const std::smatch &m = *it;
        const std::string name = m[1].str();
        if (keywords.count(unqualifiedName(name)))
            continue;
        const std::size_t name_off =
            static_cast<std::size_t>(m.position(0));
        const std::size_t open =
            name_off + static_cast<std::size_t>(m.length(0)) - 1;
        const std::size_t close = matchBrace(text, open);
        if (close == std::string::npos)
            continue;
        ScannedFunction def;
        def.name = name;
        def.params = m[2].str();
        def.bodyBegin = open + 1;
        def.bodyEnd = close;
        def.nameOffset = name_off;
        out.push_back(std::move(def));
    }
    return out;
}

std::string
formatFinding(const Finding &f)
{
    std::string out = f.file + ":" + std::to_string(f.line) + ": ";
    if (f.severity == "warning")
        out += "warning: ";
    out += "[" + f.rule + "] " + f.message;
    return out;
}

std::size_t
errorCount(const std::vector<Finding> &findings)
{
    std::size_t n = 0;
    for (const auto &f : findings)
        if (f.severity != "warning")
            ++n;
    return n;
}

} // namespace analyze
} // namespace graphene
