#include "obs/metrics.hh"

#ifndef GRAPHENE_OBS_OFF

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

MetricsRegistry::Snapshot
MetricsRegistry::snapshot() const
{
    Snapshot snap;
    for (const auto &kv : _group.scalars())
        snap.scalars.emplace_back(kv.first, kv.second.value());
    for (const auto &kv : _group.histograms()) {
        Snapshot::HistogramState h;
        h.name = kv.first;
        h.buckets = kv.second.buckets();
        h.bucketWidth = kv.second.bucketWidth();
        h.count = kv.second.count();
        h.overflow = kv.second.overflow();
        h.sum = kv.second.sum();
        h.maxSeen = kv.second.max();
        snap.histograms.push_back(std::move(h));
    }
    snap.lastScalar = _lastScalar;
    snap.lastHistSamples = _lastHistSamples;
    snap.rows = _rows;
    snap.windowCycles = _windowCycles.value();
    snap.currentWindow = _currentWindow;
    snap.open = _open;
    return snap;
}

void
MetricsRegistry::restore(const Snapshot &snap)
{
    _group = StatGroup{};
    for (const auto &kv : snap.scalars)
        _group.scalar(kv.first).restoreValue(kv.second);
    for (const auto &h : snap.histograms) {
        // histogram() fixes the shape on first call; max is
        // width x buckets by construction.
        Histogram &hist = _group.histogram(
            h.name, h.buckets.size(),
            h.bucketWidth * static_cast<double>(h.buckets.size()));
        hist.restoreCounts(h.buckets, h.count, h.overflow, h.sum,
                           h.maxSeen);
    }
    _lastScalar = snap.lastScalar;
    _lastHistSamples = snap.lastHistSamples;
    _rows = snap.rows;
    _windowCycles = Cycle(snap.windowCycles);
    _currentWindow = snap.currentWindow;
    _open = snap.open;
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
    for (const auto &kv : _group.scalars())
        os << "," << json::quote(kv.first) << ":"
           << json::number(kv.second.value());
    for (const auto &kv : _group.histograms()) {
        os << "," << json::quote(kv.first + ".samples") << ":"
           << json::number(static_cast<double>(kv.second.samples()));
        // Bucket-interpolated tail latencies: rollups and alert
        // rules watch tails, not means.
        os << "," << json::quote(kv.first + ".p50") << ":"
           << json::number(kv.second.quantile(0.50));
        os << "," << json::quote(kv.first + ".p95") << ":"
           << json::number(kv.second.quantile(0.95));
        os << "," << json::quote(kv.first + ".p99") << ":"
           << json::number(kv.second.quantile(0.99));
    }
    os << "}\n";
}

} // namespace obs
} // namespace graphene

#else // GRAPHENE_OBS_OFF

// Fully inline when compiled out; see metrics.hh.

#endif // GRAPHENE_OBS_OFF
