#include "obs/export.hh"

#include <algorithm>
#include <sstream>

#include "ckpt/checkpoint.hh"
#include "common/json.hh"

namespace graphene {
namespace obs {

void
ServiceStatus::finalize()
{
    std::sort(sessions.begin(), sessions.end(),
              [](const SessionStatus &a, const SessionStatus &b) {
                  return a.id < b.id;
              });
    running = done = failed = pending = 0;
    for (const auto &s : sessions) {
        if (s.state == "running")
            ++running;
        else if (s.state == "done")
            ++done;
        else if (s.state == "failed")
            ++failed;
        else
            ++pending;
    }
}

namespace {

Result<void>
atomicWriteString(const std::string &path, const std::string &text)
{
    std::vector<std::uint8_t> bytes(text.begin(), text.end());
    return ckpt::atomicWriteFile(path, bytes);
}

void
appendSessionObject(std::ostream &os, const SessionStatus &s)
{
    os << "{\"id\":" << json::quote(s.id)
       << ",\"scheme\":" << json::quote(s.scheme)
       << ",\"source\":" << json::quote(s.source)
       << ",\"state\":" << json::quote(s.state);
    if (!s.failure.empty())
        os << ",\"failure\":" << json::quote(s.failure);
    os << ",\"last_window\":" << s.lastWindow
       << ",\"jsonl_lines\":" << s.jsonlLines
       << ",\"buffered_rows\":" << s.bufferedRows
       << ",\"chunk_rows\":" << s.chunkRows
       << ",\"alerts_fired\":" << s.alertsFired << "}";
}

} // namespace

std::string
renderStatusJson(const ServiceStatus &status)
{
    // Valid nested JSON, but each session object sits alone on its
    // line: `grep '"id":"t03"' status.json` (and the flat json::
    // extractors in serve_dash) work per session without a real JSON
    // parser. No wall-clock field may ever be added here — volatile
    // data belongs in the status.meta.json sidecar.
    std::ostringstream os;
    os << "{\"format\":\"graphene-serve-status-v1\""
       << ",\"schema\":" << kStatusSchema
       << ",\"quantum_cycles\":" << status.quantumCycles
       << ",\"sessions_total\":" << status.sessions.size()
       << ",\"running\":" << status.running
       << ",\"done\":" << status.done
       << ",\"failed\":" << status.failed
       << ",\"pending\":" << status.pending << ",\"sessions\":[\n";
    for (std::size_t i = 0; i < status.sessions.size(); ++i) {
        appendSessionObject(os, status.sessions[i]);
        if (i + 1 < status.sessions.size())
            os << ",";
        os << "\n";
    }
    os << "]}\n";
    return os.str();
}

Result<void>
writeStatusJson(const std::string &path, const ServiceStatus &status)
{
    return atomicWriteString(path, renderStatusJson(status));
}

Result<void>
writeStatusSidecar(const std::string &path, std::uint64_t unix_ms,
                   std::uint64_t jobs, std::uint64_t refreshes)
{
    std::ostringstream os;
    os << "{\"volatile\":true,\"unix_ms\":" << unix_ms
       << ",\"jobs\":" << jobs << ",\"refreshes\":" << refreshes
       << "}\n";
    return atomicWriteString(path, os.str());
}

std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out;
}

void
writeExposition(std::ostream &os, const Rollup &rollup,
                const ServiceStatus &status)
{
    // Per-tenant counters from each session's totals. Families are
    // grouped so every series of a metric shares one HELP/TYPE pair,
    // as the text format requires.
    std::map<std::string, std::vector<std::pair<std::string, double>>>
        families;
    for (const auto &kv : rollup.tenants())
        for (const auto &m : kv.second.totals)
            families["graphene_serve_" + promName(m.first) + "_total"]
                .emplace_back(kv.first, m.second);
    for (const auto &family : families) {
        os << "# HELP " << family.first
           << " End-of-run total of the session metric.\n";
        os << "# TYPE " << family.first << " counter\n";
        for (const auto &sample : family.second)
            os << family.first << "{tenant=\""
               << json::escape(sample.first)
               << "\"} " << json::number(sample.second) << "\n";
    }

    // Fleet-wide sums, label-free.
    const auto fleet = rollup.fleetTotals();
    for (const auto &m : fleet) {
        const std::string name =
            "graphene_fleet_" + promName(m.first) + "_total";
        os << "# HELP " << name
           << " Sum of the metric over every tenant.\n";
        os << "# TYPE " << name << " counter\n";
        os << name << " " << json::number(m.second) << "\n";
    }

    // Session-state gauges from the health snapshot.
    os << "# HELP graphene_serve_sessions Session count by state.\n";
    os << "# TYPE graphene_serve_sessions gauge\n";
    os << "graphene_serve_sessions{state=\"running\"} "
       << status.running << "\n";
    os << "graphene_serve_sessions{state=\"done\"} " << status.done
       << "\n";
    os << "graphene_serve_sessions{state=\"failed\"} " << status.failed
       << "\n";
    os << "graphene_serve_sessions{state=\"pending\"} "
       << status.pending << "\n";
}

} // namespace obs
} // namespace graphene
