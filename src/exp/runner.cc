#include "exp/runner.hh"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <optional>
#include <utility>

#include <algorithm>

#include "common/cancel.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "exp/fingerprint.hh"
#include "obs/obs.hh"
#include "obs/rollup.hh"

namespace graphene {
namespace exp {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** Serialised progress-line printer (workers report completions). */
class ProgressLine
{
  public:
    ProgressLine(std::ostream &os, std::string label,
                 std::size_t total)
        : _os(os), _label(std::move(label)), _total(total),
          _start(Clock::now())
    {
    }

    void completed(std::size_t done, std::size_t hits)
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        // Throttle to ~5 updates/s; always print the final state.
        const double elapsed = msSince(_start);
        if (done != _total && elapsed - _lastPrintMs < 200.0)
            return;
        _lastPrintMs = elapsed;
        const std::size_t run = done - hits;
        double eta = 0.0;
        if (run > 0 && done < _total)
            eta = elapsed / static_cast<double>(done) *
                  static_cast<double>(_total - done) / 1000.0;
        _os << "\r[" << _label << "] " << done << "/" << _total
            << " cells, " << hits << " cached ("
            << static_cast<int>(
                   done == 0 ? 0.0
                             : 100.0 * static_cast<double>(hits) /
                                   static_cast<double>(done))
            << "% hit)";
        if (done < _total)
            _os << ", eta " << static_cast<int>(eta + 0.5) << "s ";
        else
            _os << ", done in "
                << static_cast<int>(elapsed / 1000.0 + 0.5) << "s \n";
        _os.flush();
    }

  private:
    std::ostream &_os;
    std::string _label;
    std::size_t _total;
    Clock::time_point _start;
    double _lastPrintMs = -1e9;
    std::mutex _mutex;
};

/** File-name-safe rendering of a cell-key axis label. */
std::string
sanitizeToken(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const bool ok =
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '-' || c == '.';
        out += ok ? c : '_';
    }
    return out;
}

/** Volatile per-cell tracing profile, destined for the .meta
 *  sidecar (never the primary artifact) — plus the cell's windowed
 *  metric series, captured so the commit loop can merge every traced
 *  cell into one obsDir-level rollup without keeping sinks alive. */
struct ObsProfile
{
    bool traced = false;
    std::uint64_t traceEvents = 0;
    std::uint64_t traceDropped = 0;
    std::size_t peakRing = 0;
    obs::SessionSeries series;
};

/** The cell's tenant name inside the cross-cell rollup (== the
 *  sidecar file stem, so the two are trivially correlated). */
std::string
cellTenant(const CellKey &key)
{
    return sanitizeToken(key.experiment) + "_" +
           sanitizeToken(key.workload) + "_" +
           sanitizeToken(key.scheme) + "_" +
           Fingerprint::hex(key.fingerprint);
}

/** Write one traced cell's sidecar files (events JSONL, Chrome
 *  trace, windowed metrics) and fill its profile. */
void
writeCellTrace(const std::string &dir, const CellKey &key,
               const obs::Sink &sink, ObsProfile &profile)
{
    profile.traced = true;
    profile.traceEvents = sink.tracer.totalRetained();
    profile.traceDropped = sink.tracer.totalDropped();
    profile.peakRing = sink.tracer.peakOccupancy();
    const std::string tenant = cellTenant(key);
    profile.series = obs::seriesFromRegistry(sink.metrics, tenant);
    const std::string base = dir + "/" + tenant;
    {
        std::ofstream os(base + ".events.jsonl", std::ios::trunc);
        sink.tracer.writeEventsJsonl(os, sink.metrics.windowCycles());
    }
    {
        std::ofstream os(base + ".trace.json", std::ios::trunc);
        sink.tracer.writeChromeTrace(os);
    }
    {
        std::ofstream os(base + ".metrics.jsonl", std::ios::trunc);
        sink.metrics.writeJsonl(os);
    }
}

} // namespace

std::string
RunSummary::describe() const
{
    std::string line = strprintf(
        "%zu cell(s): %zu executed, %zu cached (%.0f%% hit), "
        "%zu error(s), %.1f s wall",
        total, executed, cacheHits, 100.0 * cacheHitRate(), errors,
        wallMs / 1000.0);
    if (resumed > 0)
        line += strprintf(", %zu resumed", resumed);
    if (timeouts > 0)
        line += strprintf(", %zu timeout(s)", timeouts);
    return line;
}

Runner::Runner(RunOptions options)
    : _options(std::move(options)), _pool(_options.jobs)
{
}

Runner::~Runner() = default;

void
Runner::openArtifacts()
{
    if (_artifactsOpen || _options.jsonlPath.empty())
        return;
    _artifactsOpen = true;
    _jsonl.open(_options.jsonlPath, std::ios::trunc);
    _meta.open(_options.jsonlPath + ".meta", std::ios::trunc);
    // An unwritable artifact path is an operator-level error: the
    // sweep's results would silently vanish.
    if (!_jsonl)
        // analyze: allow(boundary-fatal)
        fatal("cannot open JSONL artifact '%s'",
              _options.jsonlPath.c_str());
}

void
Runner::openManifest()
{
    if (_manifestOpen || _options.ckptDir.empty())
        return;
    _manifestOpen = true;
    _manifest.emplace(_options.ckptDir, _options.versionTag);
    if (!_options.resume)
        return;
    const ckpt::LoadReport report = _manifest->load();
    if (_options.progress) {
        std::ostream &os = _options.progressStream
                               ? *_options.progressStream
                               : std::cerr;
        for (const std::string &note : report.notes)
            os << "[ckpt] rejected manifest: " << note << "\n";
        if (!report.source.empty())
            os << "[ckpt] resuming " << _manifest->size()
               << " completed cell(s) from " << report.source << "\n";
    }
}

std::vector<CellResult>
Runner::run(const ExperimentSpec &spec)
{
    const std::size_t n = spec.cells.size();
    std::vector<CellResult> results(n);
    // How each slot was filled, for the .meta sidecar.
    enum : char { kMiss = 0, kHit = 1, kResume = 2, kTimeout = 3 };
    std::vector<char> source(n, kMiss);
    std::vector<double> wall_ms(n, 0.0);
    std::vector<ObsProfile> profiles(n);

    const bool use_obs = obs::kEnabled && !_options.obsDir.empty();
    if (use_obs)
        std::filesystem::create_directories(_options.obsDir);

    std::optional<Cache> cache;
    if (!_options.cacheDir.empty())
        cache.emplace(_options.cacheDir, _options.versionTag);
    openManifest();

    std::ostream *progress_os =
        _options.progressStream ? _options.progressStream
                                : &std::cerr;
    std::optional<ProgressLine> progress;
    if (_options.progress)
        progress.emplace(*progress_os, spec.name, n);

    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> resumed{0};
    std::atomic<std::size_t> timeouts{0};

    // The manifest is shared mutable state across workers; every
    // touch goes through this mutex (lookups included — record()
    // rebalances the map under concurrent readers otherwise).
    std::mutex manifest_mutex;
    const auto record_completion = [&](const CellKey &key,
                                       const CellResult &result) {
        if (!_manifest)
            return;
        const std::lock_guard<std::mutex> lock(manifest_mutex);
        _manifest->record(key, result);
        if (++_sinceCkpt <
            std::max<std::size_t>(std::size_t{1}, _options.ckptEvery))
            return;
        _sinceCkpt = 0;
        const Result<void> saved = _manifest->persist();
        if (!saved.ok() && !_manifestBroken) {
            _manifestBroken = true;
            *progress_os << "\n[ckpt] manifest persist failed ("
                         << saved.error().describe()
                         << "); continuing without checkpoints\n";
        }
    };

    const auto start = Clock::now();
    _pool.parallelFor(n, [&](std::size_t i) {
        const Cell &cell = spec.cells[i];
        const auto cell_start = Clock::now();
        const auto finish_cell = [&](char how) {
            source[i] = how;
            wall_ms[i] = msSince(cell_start);
            if (progress)
                progress->completed(done.fetch_add(1) + 1,
                                    hits.load() + resumed.load());
        };
        if (_manifest && _options.resume) {
            std::optional<CellResult> prior;
            {
                const std::lock_guard<std::mutex> lock(
                    manifest_mutex);
                prior = _manifest->lookup(cell.key);
            }
            if (prior) {
                results[i] = std::move(*prior);
                resumed.fetch_add(1, std::memory_order_relaxed);
                finish_cell(kResume);
                return;
            }
        }
        if (cache) {
            if (auto cached = cache->load(cell.key)) {
                results[i] = std::move(*cached);
                hits.fetch_add(1, std::memory_order_relaxed);
                // A cache hit still completes the cell: record it so
                // the manifest stays a full completion log.
                record_completion(cell.key, results[i]);
                finish_cell(kHit);
                return;
            }
        }

        // Execute, under a cooperative wall-clock budget when one is
        // configured; a timed-out attempt is retried a bounded number
        // of times. A skipped result on a cancelled token is a
        // timeout, whether the budget tripped it or the body did.
        const bool budgeted = _options.cellTimeoutMs > 0.0;
        const unsigned max_attempts =
            1 + (budgeted ? _options.cellRetries : 0);
        bool timed_out = false;
        for (unsigned attempt = 1;; ++attempt) {
            CancelToken token;
            if (budgeted)
                token.armDeadline(
                    CancelToken::Clock::now() +
                    std::chrono::duration_cast<
                        CancelToken::Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            _options.cellTimeoutMs)));
            std::optional<obs::Sink> sink;
            if (use_obs)
                sink.emplace(_options.obsRingCapacity);
            results[i] = cell.body({sink ? &*sink : nullptr, token});
            timed_out = token.cancelled() && results[i].skipped();
            // A cell that never opened the sink's windows did not
            // trace, and leaves no trace files behind.
            if (sink && !timed_out &&
                sink->metrics.windowCycles() != Cycle{})
                writeCellTrace(_options.obsDir, cell.key, *sink,
                               profiles[i]);
            if (!timed_out || attempt >= max_attempts)
                break;
        }

        if (timed_out) {
            // Deterministic error text (no wall-clock readings): the
            // JSONL artifact stays byte-stable for a given outcome.
            results[i] = CellResult{
                {}, Error(ErrorCode::Timeout,
                          strprintf("cell exceeded its %.0f ms "
                                    "budget (%u attempt(s))",
                                    _options.cellTimeoutMs,
                                    max_attempts))
                        .describe(),
                true};
            timeouts.fetch_add(1, std::memory_order_relaxed);
            // Neither cached nor recorded: a resume retries it.
            finish_cell(kTimeout);
            return;
        }
        if (cache)
            cache->store(cell.key, results[i]);
        record_completion(cell.key, results[i]);
        finish_cell(kMiss);
    });
    const double stage_ms = msSince(start);

    // Persist the tail of completions (< ckptEvery since the last
    // periodic save) so a between-stages crash loses nothing.
    if (_manifest && !_manifestBroken) {
        const std::lock_guard<std::mutex> lock(manifest_mutex);
        _sinceCkpt = 0;
        const Result<void> saved = _manifest->persist();
        if (!saved.ok()) {
            _manifestBroken = true;
            *progress_os << "\n[ckpt] manifest persist failed ("
                         << saved.error().describe()
                         << "); continuing without checkpoints\n";
        }
    }

    // Commit order is spec order, whatever the schedule was: the
    // JSONL artifact is byte-identical across jobs counts.
    openArtifacts();
    if (_artifactsOpen) {
        for (std::size_t i = 0; i < n; ++i)
            _jsonl << cellRecordLine(spec.cells[i].key, results[i])
                   << "\n";
        _jsonl.flush();
        for (std::size_t i = 0; i < n; ++i) {
            const CellKey &key = spec.cells[i].key;
            _meta << "{\"experiment\":" << json::quote(key.experiment)
                  << ",\"workload\":" << json::quote(key.workload)
                  << ",\"scheme\":" << json::quote(key.scheme)
                  << ",\"fingerprint\":\""
                  << Fingerprint::hex(key.fingerprint) << "\""
                  << ",\"cache\":\""
                  << (source[i] == kHit      ? "hit"
                      : source[i] == kResume ? "resume"
                      : source[i] == kTimeout
                          ? "timeout"
                          : "miss")
                  << "\",\"wall_ms\":" << json::number(wall_ms[i])
                  << ",\"acts_per_ms\":"
                  << json::number(
                         wall_ms[i] > 0.0
                             ? static_cast<double>(
                                   results[i].stats.acts) /
                                   wall_ms[i]
                             : 0.0);
            if (profiles[i].traced)
                _meta << ",\"trace_events\":"
                      << profiles[i].traceEvents
                      << ",\"trace_dropped\":"
                      << profiles[i].traceDropped
                      << ",\"peak_ring\":" << profiles[i].peakRing;
            _meta << "}\n";
        }
        std::size_t stage_errors = 0;
        for (const auto &r : results)
            if (r.skipped())
                ++stage_errors;
        _meta << "{\"stage\":" << json::quote(spec.name)
              << ",\"cells\":" << n << ",\"cache_hits\":"
              << hits.load() << ",\"resumed\":" << resumed.load()
              << ",\"timeouts\":" << timeouts.load()
              << ",\"errors\":" << stage_errors
              << ",\"jobs\":" << _pool.jobs()
              << ",\"wall_ms\":" << json::number(stage_ms) << "}\n";
        _meta.flush();
    }

    // Merge every traced cell's window series into one cross-cell
    // rollup next to the sidecars. Single-threaded (post-barrier) and
    // keyed by sorted tenant name, so the file is deterministic for
    // any jobs count. Rewritten whole per stage: later stages see the
    // cumulative fleet because _obsRollup outlives the stage.
    if (use_obs) {
        bool merged = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (!profiles[i].traced)
                continue;
            _obsRollup.add(profiles[i].series);
            merged = true;
        }
        if (merged) {
            std::ofstream os(_options.obsDir + "/rollup.jsonl",
                             std::ios::trunc);
            _obsRollup.writeJsonl(os);
        }
    }

    _summary.total += n;
    _summary.cacheHits += hits.load();
    _summary.resumed += resumed.load();
    _summary.timeouts += timeouts.load();
    _summary.executed += n - hits.load() - resumed.load();
    for (const auto &r : results)
        if (r.skipped())
            ++_summary.errors;
    _summary.wallMs += stage_ms;
    return results;
}

std::vector<CellResult>
runExperiment(const ExperimentSpec &spec, const RunOptions &options)
{
    Runner runner(options);
    return runner.run(spec);
}

} // namespace exp
} // namespace graphene
