#include "obs/rollup.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>

#include "common/json.hh"

namespace graphene {
namespace obs {

namespace {

/** Parse @p token as a double; false on garbage. */
bool
parseNumber(const std::string &token, double &out)
{
    if (token.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
}

Error
lineError(const std::string &path, std::size_t lineno,
          const std::string &what)
{
    return Error(ErrorCode::Parse,
                 strprintf("%s:%zu: %s", path.c_str(), lineno,
                           what.c_str()));
}

} // namespace

Result<SessionSeries>
readMetricsJsonl(const std::string &path, const std::string &tenant)
{
    std::ifstream in(path);
    if (!in)
        return Error(ErrorCode::Io,
                     "cannot open metrics stream: " + path);

    SessionSeries series;
    series.tenant = tenant;

    std::string line;
    std::size_t lineno = 0;
    bool sawHeader = false;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        const auto parsed = json::fields(line);
        if (!parsed)
            return lineError(path, lineno, "malformed JSONL object");
        // Classify the line by its first key: header / window / totals.
        if (!sawHeader) {
            const auto format = json::getString(line, "format");
            if (!format || *format != "graphene-obs-metrics-v1")
                return lineError(path, lineno,
                                 "missing graphene-obs-metrics-v1 "
                                 "header");
            const auto schema = json::getU64(line, "schema");
            if (schema && *schema > kMetricsJsonlSchema)
                return Error(
                    ErrorCode::Unsupported,
                    strprintf("%s: schema %llu is newer than this "
                              "reader (%u)",
                              path.c_str(),
                              static_cast<unsigned long long>(*schema),
                              kMetricsJsonlSchema));
            const auto wc = json::getU64(line, "window_cycles");
            if (wc)
                series.windowCycles = *wc;
            sawHeader = true;
            continue;
        }
        const auto window = json::getU64(line, "window");
        if (window && parsed->front().key == "window") {
            WindowDelta delta;
            delta.window = *window;
            for (const auto &field : *parsed) {
                if (field.key == "window")
                    continue;
                double v = 0.0;
                if (!parseNumber(field.raw, v))
                    return lineError(path, lineno,
                                     "non-numeric delta for metric '" +
                                         field.key + "'");
                delta.values[field.key] = v;
            }
            series.windows.push_back(std::move(delta));
            continue;
        }
        if (!parsed->empty() && parsed->front().key == "totals") {
            for (const auto &field : *parsed) {
                if (field.key == "totals")
                    continue;
                double v = 0.0;
                if (!parseNumber(field.raw, v))
                    return lineError(path, lineno,
                                     "non-numeric total for metric '" +
                                         field.key + "'");
                series.totals[field.key] = v;
            }
            series.haveTotals = true;
            continue;
        }
        return lineError(path, lineno,
                         "line is neither window nor totals");
    }
    if (!sawHeader)
        return Error(ErrorCode::Parse,
                     path + ": empty metrics stream (no header)");
    return series;
}

Result<SessionSeries>
readServeJsonl(const std::string &path, const std::string &tenant)
{
    std::ifstream in(path);
    if (!in)
        return Error(ErrorCode::Io,
                     "cannot open session artifact: " + path);

    SessionSeries series;
    series.tenant = tenant;

    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        const auto parsed = json::fields(line);
        if (!parsed || parsed->empty())
            return lineError(path, lineno, "malformed JSONL object");
        const std::string &lead = parsed->front().key;
        if (lead == "window") {
            WindowDelta delta;
            for (const auto &field : *parsed) {
                double v = 0.0;
                if (!parseNumber(field.raw, v))
                    return lineError(path, lineno,
                                     "non-numeric window field '" +
                                         field.key + "'");
                if (field.key == "window") {
                    delta.window = static_cast<std::uint64_t>(v);
                    continue;
                }
                // start/end are absolute cycle stamps, not deltas;
                // keep only additive fields so fleet sums make sense.
                if (field.key == "start" || field.key == "end")
                    continue;
                delta.values[field.key] = v;
            }
            series.windows.push_back(std::move(delta));
            continue;
        }
        if (lead == "summary") {
            for (const auto &field : *parsed) {
                if (field.key == "summary" || field.key == "windows")
                    continue;
                double v = 0.0;
                if (!parseNumber(field.raw, v))
                    continue; // non-numeric summary fields are fine
                series.totals[field.key] = v;
            }
            series.haveTotals = true;
            continue;
        }
        if (lead == "error") {
            series.failed = true;
            const auto code = json::getString(line, "error");
            series.error = code ? *code : "unknown";
            continue;
        }
        return lineError(path, lineno,
                         "unrecognised session line kind '" + lead +
                             "'");
    }
    return series;
}

SessionSeries
seriesFromRegistry(const MetricsRegistry &registry,
                   const std::string &tenant)
{
    SessionSeries series;
    series.tenant = tenant;
    series.windowCycles = registry.windowCycles().value();
    for (const auto &row : registry.windows()) {
        WindowDelta delta;
        delta.window = row.window;
        delta.values = row.deltas;
        series.windows.push_back(std::move(delta));
    }
    // The same fields writeJsonl's totals line carries, so a series
    // built from the live registry equals one parsed back from the
    // JSONL byte stream (the round-trip test holds them equal).
    for (auto &[name, value] : registry.totalFields())
        series.totals[std::move(name)] = value;
    series.haveTotals = true;
    return series;
}

Result<void>
checkConservation(const SessionSeries &series, double tol)
{
    ErrorCollector issues(ErrorCode::Internal,
                          "window-delta conservation for tenant '" +
                              series.tenant + "'");
    std::map<std::string, double> sums;
    for (const auto &delta : series.windows)
        for (const auto &kv : delta.values)
            sums[kv.first] += kv.second;
    for (const auto &kv : series.totals) {
        const auto it = sums.find(kv.first);
        if (it == sums.end())
            continue; // total-only metrics (quantiles) have no series
        if (std::fabs(it->second - kv.second) > tol)
            issues.add(strprintf(
                "%s: sum of deltas %.17g != total %.17g",
                kv.first.c_str(), it->second, kv.second));
    }
    return issues.finish();
}

void
Rollup::add(const SessionSeries &series)
{
    _tenants[series.tenant] = series;
}

const SessionSeries *
Rollup::find(const std::string &tenant) const
{
    const auto it = _tenants.find(tenant);
    return it == _tenants.end() ? nullptr : &it->second;
}

std::vector<WindowDelta>
Rollup::fleet() const
{
    // Ordinal-keyed sum; the map keeps the result sorted so the
    // emitted series is deterministic regardless of ingest order.
    std::map<std::uint64_t, WindowDelta> byOrdinal;
    for (const auto &kv : _tenants) {
        for (const auto &delta : kv.second.windows) {
            WindowDelta &acc = byOrdinal[delta.window];
            acc.window = delta.window;
            for (const auto &m : delta.values)
                acc.values[m.first] += m.second;
        }
    }
    std::vector<WindowDelta> out;
    out.reserve(byOrdinal.size());
    for (auto &kv : byOrdinal)
        out.push_back(std::move(kv.second));
    return out;
}

std::map<std::string, double>
Rollup::fleetTotals() const
{
    std::map<std::string, double> out;
    for (const auto &kv : _tenants)
        for (const auto &m : kv.second.totals)
            out[m.first] += m.second;
    return out;
}

void
Rollup::writeJsonl(std::ostream &os) const
{
    std::size_t windowLines = 0;
    for (const auto &kv : _tenants)
        windowLines += kv.second.windows.size();
    os << "{\"header\":true,\"format\":\"graphene-obs-rollup-v1\""
       << ",\"schema\":" << kMetricsJsonlSchema
       << ",\"tenants\":" << _tenants.size()
       << ",\"windows\":" << windowLines << "}\n";
    for (const auto &kv : _tenants) {
        const SessionSeries &series = kv.second;
        for (const auto &delta : series.windows) {
            os << "{\"tenant\":" << json::quote(series.tenant)
               << ",\"window\":" << delta.window;
            for (const auto &m : delta.values)
                os << "," << json::quote(m.first) << ":"
                   << json::number(m.second);
            os << "}\n";
        }
        os << "{\"tenant\":" << json::quote(series.tenant)
           << ",\"totals\":true,\"failed\":"
           << (series.failed ? "true" : "false");
        if (series.failed)
            os << ",\"error\":" << json::quote(series.error);
        for (const auto &m : series.totals)
            os << "," << json::quote(m.first) << ":"
               << json::number(m.second);
        os << "}\n";
    }
    for (const auto &delta : fleet()) {
        os << "{\"fleet\":true,\"window\":" << delta.window;
        for (const auto &m : delta.values)
            os << "," << json::quote(m.first) << ":"
               << json::number(m.second);
        os << "}\n";
    }
    os << "{\"fleet\":true,\"totals\":true";
    for (const auto &m : fleetTotals())
        os << "," << json::quote(m.first) << ":"
           << json::number(m.second);
    os << "}\n";
}

} // namespace obs
} // namespace graphene
