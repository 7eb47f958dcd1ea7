#include "obs/alerts.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/json.hh"

namespace graphene {
namespace obs {

const char *
alertOpName(AlertOp op)
{
    switch (op) {
      case AlertOp::Gt: return ">";
      case AlertOp::Ge: return ">=";
      case AlertOp::Lt: return "<";
      case AlertOp::Le: return "<=";
      case AlertOp::Eq: return "==";
      case AlertOp::Ne: return "!=";
    }
    return "?";
}

std::string
AlertRule::describe() const
{
    std::ostringstream ss;
    ss << name << ": " << metric << " " << alertOpName(op) << " ";
    if (thresholdIsChunk)
        ss << "chunk";
    else
        ss << threshold;
    if (forWindows > 1)
        ss << " for " << forWindows;
    return ss.str();
}

namespace {

/** Split on unquoted whitespace runs. */
std::vector<std::string>
tokens(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream ss(line);
    std::string tok;
    while (ss >> tok)
        out.push_back(tok);
    return out;
}

bool
parseOp(const std::string &tok, AlertOp &op)
{
    if (tok == ">")  { op = AlertOp::Gt; return true; }
    if (tok == ">=") { op = AlertOp::Ge; return true; }
    if (tok == "<")  { op = AlertOp::Lt; return true; }
    if (tok == "<=") { op = AlertOp::Le; return true; }
    if (tok == "==") { op = AlertOp::Eq; return true; }
    if (tok == "!=") { op = AlertOp::Ne; return true; }
    return false;
}

bool
satisfies(double v, AlertOp op, double threshold)
{
    switch (op) {
      case AlertOp::Gt: return v > threshold;
      case AlertOp::Ge: return v >= threshold;
      case AlertOp::Lt: return v < threshold;
      case AlertOp::Le: return v <= threshold;
      case AlertOp::Eq: return v == threshold;
      case AlertOp::Ne: return v != threshold;
    }
    return false;
}

} // namespace

Result<std::vector<AlertRule>>
parseAlertRules(const std::string &text)
{
    std::vector<AlertRule> rules;
    ErrorCollector issues(ErrorCode::Parse, "alert rules");
    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;
    std::map<std::string, std::size_t> seen;
    while (std::getline(in, line)) {
        ++lineno;
        // Strip comments and surrounding whitespace.
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const auto toks = tokens(line);
        if (toks.empty())
            continue;
        // Grammar: `<name>: <metric> <op> <value> [for <N>]`.
        AlertRule rule;
        if (toks[0].size() < 2 || toks[0].back() != ':') {
            issues.add(strprintf("line %zu: expected `name:`, got "
                                 "'%s'",
                                 lineno, toks[0].c_str()));
            continue;
        }
        rule.name = toks[0].substr(0, toks[0].size() - 1);
        if (toks.size() != 4 && toks.size() != 6) {
            issues.add(strprintf(
                "line %zu: expected `name: metric op value "
                "[for N]` (%zu token(s))",
                lineno, toks.size()));
            continue;
        }
        rule.metric = toks[1];
        if (!parseOp(toks[2], rule.op)) {
            issues.add(strprintf("line %zu: unknown operator '%s'",
                                 lineno, toks[2].c_str()));
            continue;
        }
        if (toks[3] == "chunk") {
            rule.thresholdIsChunk = true;
        } else {
            char *end = nullptr;
            rule.threshold = std::strtod(toks[3].c_str(), &end);
            if (end != toks[3].c_str() + toks[3].size()) {
                issues.add(strprintf(
                    "line %zu: threshold '%s' is neither a number "
                    "nor `chunk`",
                    lineno, toks[3].c_str()));
                continue;
            }
        }
        if (toks.size() == 6) {
            if (toks[4] != "for") {
                issues.add(strprintf("line %zu: expected `for`, got "
                                     "'%s'",
                                     lineno, toks[4].c_str()));
                continue;
            }
            char *end = nullptr;
            rule.forWindows =
                std::strtoull(toks[5].c_str(), &end, 10);
            if (end != toks[5].c_str() + toks[5].size() ||
                rule.forWindows == 0) {
                issues.add(strprintf(
                    "line %zu: `for` count '%s' must be a positive "
                    "integer",
                    lineno, toks[5].c_str()));
                continue;
            }
        }
        const auto prev = seen.find(rule.name);
        if (prev != seen.end()) {
            issues.add(strprintf(
                "line %zu: duplicate rule name '%s' (first on line "
                "%zu)",
                lineno, rule.name.c_str(), prev->second));
            continue;
        }
        seen[rule.name] = lineno;
        rules.push_back(std::move(rule));
    }
    if (const auto bad = issues.finish(); !bad.ok())
        return bad.error();
    return rules;
}

Result<std::vector<AlertRule>>
loadAlertRules(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Error(ErrorCode::Io,
                     "cannot open alert rules file: " + path);
    std::ostringstream body;
    body << in.rdbuf();
    return parseAlertRules(body.str());
}

std::vector<std::size_t>
AlertEngine::onWindow(std::uint64_t,
                      const std::map<std::string, double> &deltas)
{
    std::vector<std::size_t> fired;
    for (std::size_t i = 0; i < _rules.size(); ++i) {
        const AlertRule &rule = _rules[i];
        const double threshold =
            rule.thresholdIsChunk ? _chunk : rule.threshold;
        const auto it = deltas.find(rule.metric);
        const bool hit = it != deltas.end() &&
                         satisfies(it->second, rule.op, threshold);
        if (!hit) {
            _streaks[i] = 0;
            continue;
        }
        ++_streaks[i];
        // Fire exactly when the streak *reaches* the requirement —
        // longer streaks stay silent until broken and rebuilt, so a
        // persistent condition is one alert, not one per window.
        if (_streaks[i] == rule.forWindows) {
            fired.push_back(i);
            ++_fired;
        }
    }
    return fired;
}

std::vector<AlertEvent>
evaluateSeries(const std::vector<AlertRule> &rules,
               const SessionSeries &series, double chunk)
{
    AlertEngine engine(rules, chunk);
    std::vector<AlertEvent> events;
    for (const auto &delta : series.windows) {
        for (const std::size_t idx :
             engine.onWindow(delta.window, delta.values)) {
            AlertEvent ev;
            ev.tenant = series.tenant;
            ev.rule = rules[idx].name;
            ev.window = delta.window;
            const auto it = delta.values.find(rules[idx].metric);
            ev.value = it == delta.values.end() ? 0.0 : it->second;
            events.push_back(std::move(ev));
        }
    }
    return events;
}

void
writeAlertsJsonl(std::ostream &os, const std::vector<AlertRule> &rules,
                 const std::vector<AlertEvent> &events)
{
    os << "{\"header\":true,\"format\":\"graphene-obs-alerts-v1\""
       << ",\"schema\":1,\"rules\":" << rules.size()
       << ",\"events\":" << events.size() << "}\n";
    for (const auto &rule : rules)
        os << "{\"rule\":" << json::quote(rule.name)
           << ",\"spec\":" << json::quote(rule.describe()) << "}\n";
    std::map<std::string, std::uint64_t> perRule;
    for (const auto &rule : rules)
        perRule[rule.name] = 0;
    for (const auto &ev : events) {
        os << "{\"alert\":" << json::quote(ev.rule)
           << ",\"tenant\":" << json::quote(ev.tenant)
           << ",\"window\":" << ev.window
           << ",\"value\":" << json::number(ev.value) << "}\n";
        ++perRule[ev.rule];
    }
    os << "{\"summary\":true";
    for (const auto &kv : perRule)
        os << "," << json::quote(kv.first) << ":" << kv.second;
    os << "}\n";
}

} // namespace obs
} // namespace graphene
