#include "obs/metrics.hh"

#include <cmath>

#include "ckpt/io.hh"
#include "common/json.hh"

namespace graphene {
namespace obs {

void
MetricsRegistry::beginWindows(Cycle window_cycles)
{
    _group.reset();
    _lastScalar.clear();
    _lastHistSamples.clear();
    _rows.clear();
    _windowCycles = window_cycles;
    _currentWindow = 0;
    _open = true;
}

void
MetricsRegistry::advanceTo(Cycle cycle)
{
    if (!_open) {
        // First update after construction or finish(): reopen.
        _open = true;
    }
    if (_windowCycles == Cycle{})
        return;
    const std::uint64_t idx = cycle / _windowCycles;
    // Max-monotonic: never reopen a closed window; late updates from
    // banks that lag the newest boundary land in the current window.
    while (_currentWindow < idx) {
        closeWindow();
        ++_currentWindow;
    }
}

void
MetricsRegistry::add(Cycle cycle, const std::string &name, double v)
{
    advanceTo(cycle);
    _group.scalar(name) += v;
}

void
MetricsRegistry::sample(Cycle cycle, const std::string &name, double v,
                        std::size_t num_buckets, double max)
{
    advanceTo(cycle);
    _group.histogram(name, num_buckets, max).sample(v);
}

void
MetricsRegistry::closeWindow()
{
    WindowRow row;
    row.window = _currentWindow;
    for (const auto &kv : _group.scalars()) {
        const double delta = kv.second.value() - _lastScalar[kv.first];
        row.deltas[kv.first] = delta;
        _lastScalar[kv.first] = kv.second.value();
    }
    for (const auto &kv : _group.histograms()) {
        const std::uint64_t samples = kv.second.samples();
        const std::string key = kv.first + ".samples";
        row.deltas[key] = static_cast<double>(
            samples - _lastHistSamples[kv.first]);
        _lastHistSamples[kv.first] = samples;
    }
    _rows.push_back(std::move(row));
}

void
MetricsRegistry::finish()
{
    if (!_open)
        return;
    closeWindow();
    _open = false;
}

double
MetricsRegistry::windowSum(const std::string &name) const
{
    double sum = 0.0;
    for (const auto &row : _rows) {
        const auto it = row.deltas.find(name);
        if (it != row.deltas.end())
            sum += it->second;
    }
    return sum;
}

std::vector<std::pair<std::string, double>>
MetricsRegistry::totalFields() const
{
    std::vector<std::pair<std::string, double>> fields;
    for (const auto &kv : _group.scalars())
        fields.emplace_back(kv.first, kv.second.value());
    for (const auto &kv : _group.histograms()) {
        const Histogram &h = kv.second;
        fields.emplace_back(kv.first + ".samples",
                            static_cast<double>(h.samples()));
        fields.emplace_back(kv.first + ".p50", h.quantile(0.50));
        fields.emplace_back(kv.first + ".p95", h.quantile(0.95));
        fields.emplace_back(kv.first + ".p99", h.quantile(0.99));
    }
    return fields;
}

namespace {

/** Read one name of a sorted list. saveState() writes every list in
 *  map order, so a name at or below the previous one is not its
 *  output. */
template <class Map>
std::string
nextName(ckpt::Reader &r, const Map &sorted)
{
    std::string name = r.str();
    if (!sorted.empty() && name <= sorted.rbegin()->first)
        r.fail();
    return name;
}

template <class T>
void
saveNamed(ckpt::Writer &w, const std::map<std::string, T> &m,
          void (ckpt::Writer::*value)(T))
{
    w.u64(m.size());
    for (const auto &kv : m) {
        w.str(kv.first);
        (w.*value)(kv.second);
    }
}

template <class T>
std::map<std::string, T>
loadNamed(ckpt::Reader &r, T (ckpt::Reader::*value)())
{
    std::map<std::string, T> m;
    const std::uint64_t n = r.count();
    for (std::uint64_t i = 0; i < n && !r.failed(); ++i) {
        std::string name = nextName(r, m);
        m.emplace_hint(m.end(), std::move(name), (r.*value)());
    }
    return m;
}

/** A histogram's sample count is its bucketed samples plus overflow,
 *  summed here without wrapping. */
bool
countsAgree(const std::vector<std::uint64_t> &buckets,
            std::uint64_t count, std::uint64_t overflow)
{
    for (std::uint64_t b : buckets) {
        if (b > count)
            return false;
        count -= b;
    }
    return count == overflow;
}

} // namespace

void
MetricsRegistry::saveState(ckpt::Writer &w) const
{
    w.u64(_group.scalars().size());
    for (const auto &kv : _group.scalars()) {
        w.str(kv.first);
        w.f64(kv.second.value());
    }
    w.u64(_group.histograms().size());
    for (const auto &kv : _group.histograms()) {
        const Histogram &h = kv.second;
        w.str(kv.first);
        w.u64(h.buckets().size());
        for (std::uint64_t b : h.buckets())
            w.u64(b);
        w.f64(h.bucketWidth());
        w.u64(h.count());
        w.u64(h.overflow());
        w.f64(h.sum());
        w.f64(h.max());
    }
    saveNamed(w, _lastScalar, &ckpt::Writer::f64);
    saveNamed(w, _lastHistSamples, &ckpt::Writer::u64);
    w.u64(_rows.size());
    for (const auto &row : _rows) {
        w.u64(row.window);
        saveNamed(w, row.deltas, &ckpt::Writer::f64);
    }
    w.u64(_windowCycles.value());
    w.u64(_currentWindow);
    w.boolean(_open);
}

void
MetricsRegistry::restoreState(ckpt::Reader &r)
{
    // Decode into locals and commit only a payload that passed every
    // check: a bad histogram shape must reach neither the live
    // registry nor Histogram's constructor contract.
    StatGroup group;
    for (const auto &kv : loadNamed(r, &ckpt::Reader::f64))
        group.scalar(kv.first).restoreValue(kv.second);
    const std::uint64_t hists = r.count();
    for (std::uint64_t i = 0; i < hists && !r.failed(); ++i) {
        const std::string name = nextName(r, group.histograms());
        std::vector<std::uint64_t> buckets(r.count());
        for (std::uint64_t &b : buckets)
            b = r.u64();
        const double width = r.f64();
        const std::uint64_t count = r.u64();
        const std::uint64_t overflow = r.u64();
        const double sum = r.f64();
        const double max_seen = r.f64();
        if (buckets.empty() || !std::isfinite(width) || !(width > 0.0) ||
            !countsAgree(buckets, count, overflow))
            r.fail();
        if (r.failed())
            break;
        // histogram() fixes the shape on first call; max is
        // width x buckets by construction.
        group.histogram(name, buckets.size(),
                        width * static_cast<double>(buckets.size()))
            .restoreCounts(std::move(buckets), count, overflow, sum,
                           max_seen);
    }
    auto last_scalar = loadNamed(r, &ckpt::Reader::f64);
    auto last_hist = loadNamed(r, &ckpt::Reader::u64);
    std::vector<WindowRow> rows;
    const std::uint64_t row_count = r.count();
    for (std::uint64_t i = 0; i < row_count && !r.failed(); ++i) {
        WindowRow row;
        row.window = r.u64();
        row.deltas = loadNamed(r, &ckpt::Reader::f64);
        rows.push_back(std::move(row));
    }
    const Cycle window_cycles{r.u64()};
    const std::uint64_t current_window = r.u64();
    const bool open = r.boolean();
    if (r.failed())
        return;
    _group = std::move(group);
    _lastScalar = std::move(last_scalar);
    _lastHistSamples = std::move(last_hist);
    _rows = std::move(rows);
    _windowCycles = window_cycles;
    _currentWindow = current_window;
    _open = open;
}

void
MetricsRegistry::writeJsonl(std::ostream &os) const
{
    // The header pins an explicit schema ordinal besides the format
    // string: readers (obs/rollup.hh) refuse lines from a future
    // schema instead of misparsing them. Metric names are arbitrary
    // caller strings, so every key goes through json::quote — the
    // round-trip test feeds names with quotes/backslashes through the
    // rollup reader.
    os << "{\"header\":true,\"format\":\"graphene-obs-metrics-v1\""
       << ",\"schema\":" << kMetricsJsonlSchema
       << ",\"window_cycles\":" << _windowCycles.value()
       << ",\"windows\":" << _rows.size() << "}\n";
    for (const auto &row : _rows) {
        os << "{\"window\":" << row.window;
        for (const auto &kv : row.deltas)
            os << "," << json::quote(kv.first) << ":"
               << json::number(kv.second);
        os << "}\n";
    }
    os << "{\"totals\":true";
    for (const auto &[name, value] : totalFields())
        os << "," << json::quote(name) << ":" << json::number(value);
    os << "}\n";
}

} // namespace obs
} // namespace graphene
