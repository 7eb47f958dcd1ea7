#include "serve/session.hh"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "ckpt/checkpoint.hh"
#include "ckpt/io.hh"
#include "common/json.hh"

namespace graphene {
namespace serve {

namespace {

bool
validIdChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '-';
}

Result<void>
ensureDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return Error(ErrorCode::Io,
                     strprintf("cannot create directory '%s': %s",
                               dir.c_str(), ec.message().c_str()));
    return Result<void>::success();
}

/**
 * Atomically write the first @p lines lines of the JSONL at @p from
 * to @p to (the same path truncates in place). Fails with Io when
 * @p from is unreadable or shorter; @p recorder names the artifact
 * that promised those lines, for the message.
 */
Result<void>
copyJsonlPrefix(const std::string &from, const std::string &to,
                std::uint64_t lines, const char *recorder)
{
    std::ifstream in(from);
    if (!in)
        return Error(ErrorCode::Io,
                     strprintf("cannot read '%s', but %s recorded "
                               "%llu line(s) of it",
                               from.c_str(), recorder,
                               static_cast<unsigned long long>(
                                   lines)));
    std::string kept;
    std::string line;
    std::uint64_t have = 0;
    while (have < lines && std::getline(in, line)) {
        kept += line;
        kept += '\n';
        ++have;
    }
    if (have < lines)
        return Error(
            ErrorCode::Io,
            strprintf("'%s' holds %llu line(s) but %s recorded %llu: "
                      "the flush-before-checkpoint ordering was "
                      "violated or the file was altered",
                      from.c_str(),
                      static_cast<unsigned long long>(have), recorder,
                      static_cast<unsigned long long>(lines)));
    in.close();
    // Atomic: a crash mid-copy must not leave @p to shorter than the
    // prefix the recorder promises is durable.
    return ckpt::atomicWriteFile(
        to, std::vector<std::uint8_t>(kept.begin(), kept.end()));
}

} // namespace

// ---------------------------------------------------------------------------
// SessionSpec

Result<void>
SessionSpec::validate() const
{
    ErrorCollector c(ErrorCode::Config, "serve session spec");
    if (id.empty())
        c.add("session id must be non-empty");
    else if (!std::all_of(id.begin(), id.end(), validIdChar))
        c.add(strprintf("session id '%s' has characters outside "
                        "[A-Za-z0-9_-] (it names the artifact files)",
                        id.c_str()));
    if (chunkRows == 0)
        c.add("chunkRows must be >= 1");
    const Result<void> src = source.validate();
    if (!src.ok())
        for (const std::string &note : src.error().notes())
            c.add(note);
    const Result<void> eng = engineConfig().validate();
    if (!eng.ok())
        for (const std::string &note : eng.error().notes())
            c.add(note);
    return c.finish();
}

std::uint64_t
SessionSpec::fingerprint() const
{
    ckpt::Writer enc;
    enc.str("graphene-serve-session-v1");
    save(enc);
    return ckpt::fnv1a(enc.data().data(), enc.size());
}

sim::ActEngineConfig
SessionSpec::engineConfig() const
{
    sim::ActEngineConfig config;
    config.scheme = scheme;
    // The session's geometry and clock are authoritative: the
    // embedded scheme spec is always re-derived against them.
    config.scheme.rowsPerBank = rowsPerBank;
    config.scheme.timing = timing;
    config.rowsPerBank = rowsPerBank;
    config.timing = timing;
    config.actRate = actRate;
    config.windows = windows;
    return config;
}

std::uint64_t
SessionSpec::windowCycles() const
{
    if (statsWindowCycles != 0)
        return statsWindowCycles;
    return std::max<std::uint64_t>(1, timing.cREFW().value() / 8);
}

void
SessionSpec::save(ckpt::Writer &w) const
{
    w.str(id);
    // Scheme fields minus geometry/clock — engineConfig() overrides
    // those from the session fields, so serializing them would only
    // create two disagreeing copies.
    w.u32(static_cast<std::uint32_t>(scheme.kind));
    w.u64(scheme.rowHammerThreshold);
    w.u32(scheme.blastRadius);
    w.u32(scheme.grapheneK);
    w.boolean(scheme.cbtAssumeContiguous);
    w.u64(scheme.seed);
    source.save(w);
    w.u64(rowsPerBank);
    timing.save(w);
    w.f64(actRate);
    w.f64(windows);
    w.u64(statsWindowCycles);
    w.u64(chunkRows);
}

SessionSpec
SessionSpec::load(ckpt::Reader &r)
{
    SessionSpec spec;
    spec.id = r.str();
    const std::uint32_t kind = r.u32();
    if (kind > static_cast<std::uint32_t>(schemes::SchemeKind::TwiCe))
        r.fail();
    else
        spec.scheme.kind = static_cast<schemes::SchemeKind>(kind);
    spec.scheme.rowHammerThreshold = r.u64();
    spec.scheme.blastRadius = r.u32();
    spec.scheme.grapheneK = r.u32();
    spec.scheme.cbtAssumeContiguous = r.boolean();
    spec.scheme.seed = r.u64();
    spec.source = SourceSpec::load(r);
    spec.rowsPerBank = r.u64();
    spec.timing = dram::TimingParams::load(r);
    spec.actRate = r.f64();
    spec.windows = r.f64();
    spec.statsWindowCycles = r.u64();
    spec.chunkRows = static_cast<std::size_t>(r.u64());
    // Keep the embedded scheme spec consistent with the session
    // fields, mirroring engineConfig().
    spec.scheme.rowsPerBank = spec.rowsPerBank;
    spec.scheme.timing = spec.timing;
    return spec;
}

// ---------------------------------------------------------------------------
// Session

Session::Session(SessionSpec spec, std::string out_dir,
                 std::string ckpt_dir)
    : _spec(std::move(spec)), _outDir(std::move(out_dir)),
      _ckptDir(std::move(ckpt_dir))
{
}

std::string
Session::jsonlPath() const
{
    return _outDir + "/session_" + _spec.id + ".jsonl";
}

std::string
Session::ckptPath() const
{
    return _ckptDir + "/session_" + _spec.id + ".gckp";
}

std::size_t
Session::peakBuffered() const
{
    return _pattern ? _pattern->peakBuffered() : 0;
}

void
Session::addForkTrigger(std::uint64_t window,
                        std::string artifact_path)
{
    _forkTriggers.emplace_back(window, std::move(artifact_path));
}

Result<void>
Session::build()
{
    const Result<void> valid = _spec.validate();
    if (!valid.ok())
        return valid.error();

    Result<std::unique_ptr<ActSource>> source =
        makeSource(_spec.source, _spec.rowsPerBank);
    if (!source.ok())
        return source.error();
    _source = std::move(source).value();
    _pattern =
        std::make_unique<StreamPattern>(*_source, _spec.chunkRows);

    sim::ActEngineConfig config = _spec.engineConfig();
    config.obs = _obs;
    _engine =
        std::make_unique<sim::ActStreamEngine>(config, *_pattern);

    _windowIndex = 0;
    _linesEmitted = 0;
    _finalized = false;
    _lastActs = _lastNrr = _lastRefresh = _lastVictims = _lastFlips =
        0;
    _failure.clear();
    if (_alertRules != nullptr)
        _alertEngine = obs::AlertEngine(
            *_alertRules, static_cast<double>(_spec.chunkRows));
    return Result<void>::success();
}

Result<void>
Session::openJsonl(bool truncate)
{
    Result<void> dir = ensureDir(_outDir);
    if (!dir.ok())
        return dir.error();
    _jsonl.close();
    _jsonl.clear();
    _jsonl.open(jsonlPath(), truncate ? std::ios::trunc
                                      : std::ios::app);
    if (!_jsonl)
        return Error(ErrorCode::Io,
                     strprintf("cannot open session artifact '%s'",
                               jsonlPath().c_str()));
    return Result<void>::success();
}

Result<void>
Session::start()
{
    Result<void> built = build();
    if (!built.ok())
        return built.error();
    Result<void> opened = openJsonl(/*truncate=*/true);
    if (!opened.ok())
        return opened.error();
    _state = State::Active;
    return Result<void>::success();
}

Result<ckpt::LoadReport>
Session::startResumed()
{
    const ckpt::LoadReport report = ckpt::loadNewest(
        ckptPath(), _spec.fingerprint(),
        [this](const std::vector<std::uint8_t> &payload) {
            // Rebuild from scratch per candidate: a half-applied
            // restore must never leak into the next attempt. A build
            // error recurs on the fresh start below, which returns it.
            Result<void> built = build();
            if (!built.ok())
                return built;
            ckpt::Reader r(payload);
            restorePayload(r);
            return r.finish();
        });
    if (report.source.empty()) {
        // No usable artifact: fresh restart (the notes say why).
        Result<void> started = start();
        if (!started.ok())
            return started.error();
        return report;
    }
    // A missing JSONL with nothing durable is simply reopened.
    std::error_code ec;
    if (_linesEmitted != 0 ||
        std::filesystem::exists(jsonlPath(), ec)) {
        Result<void> trunc = copyJsonlPrefix(
            jsonlPath(), jsonlPath(), _linesEmitted, "the checkpoint");
        if (!trunc.ok())
            return trunc.error();
    }
    Result<void> opened = openJsonl(/*truncate=*/false);
    if (!opened.ok())
        return opened.error();
    _state = _finalized ? State::Done : State::Active;
    return report;
}

Result<void>
Session::startForked(const std::vector<std::uint8_t> &payload,
                     const std::string &parent_jsonl)
{
    Result<void> built = build();
    if (!built.ok())
        return built.error();
    ckpt::Reader r(payload);
    restorePayload(r);
    const Result<void> fin = r.finish();
    if (!fin.ok())
        return fin.error();

    // Seed the child artifact with the parent's durable prefix: the
    // finished file must be byte-identical to a fresh full run.
    Result<void> dir = ensureDir(_outDir);
    if (!dir.ok())
        return dir.error();
    Result<void> seeded = copyJsonlPrefix(parent_jsonl, jsonlPath(),
                                          _linesEmitted,
                                          "the fork artifact");
    if (!seeded.ok())
        return seeded.error();
    Result<void> opened = openJsonl(/*truncate=*/false);
    if (!opened.ok())
        return opened.error();
    _state = _finalized ? State::Done : State::Active;
    return Result<void>::success();
}

void
Session::emitLine(const std::string &line)
{
    _jsonl << line << '\n';
    ++_linesEmitted;
}

void
Session::emitWindowLine(Cycle end_cycle)
{
    const std::uint64_t acts = _engine->actsSoFar();
    const std::uint64_t nrr = _engine->nrrEventsSoFar();
    const std::uint64_t refresh = _engine->refreshCommandsSoFar();
    const std::uint64_t victims =
        _engine->victimRowsRefreshedSoFar();
    const std::uint64_t flips = _engine->bitFlipsSoFar();
    const std::uint64_t wc = _spec.windowCycles();
    // buffered_rows is a gauge, not a delta, but it is deterministic
    // across resume (the checkpoint carries the exact buffer
    // remainder) — unlike peakBuffered(), which is ckpt-exempt and
    // must never enter a byte-compared artifact.
    emitLine(strprintf(
        "{\"window\":%llu,\"start\":%llu,\"end\":%llu,"
        "\"acts\":%llu,\"nrr_events\":%llu,"
        "\"refresh_commands\":%llu,\"victim_rows_refreshed\":%llu,"
        "\"bit_flips\":%llu,\"buffered_rows\":%llu}",
        static_cast<unsigned long long>(_windowIndex),
        static_cast<unsigned long long>(_windowIndex * wc),
        static_cast<unsigned long long>(end_cycle.value()),
        static_cast<unsigned long long>(acts - _lastActs),
        static_cast<unsigned long long>(nrr - _lastNrr),
        static_cast<unsigned long long>(refresh - _lastRefresh),
        static_cast<unsigned long long>(victims - _lastVictims),
        static_cast<unsigned long long>(flips - _lastFlips),
        static_cast<unsigned long long>(bufferedRows())));
    // Live alert evaluation over *exactly* the fields the window
    // line records, so the live engine and the offline drain-time
    // replay (obs::evaluateSeries over this artifact) agree rule for
    // rule. Fired rules become Alert trace events and a live
    // counter; the canonical alerts artifact is the offline one.
    // Under GRAPHENE_OBS_OFF nothing reads the result, so skip it.
    if (obs::kEnabled && _alertRules != nullptr &&
        !_alertRules->empty()) {
        std::map<std::string, double> deltas;
        deltas["acts"] = static_cast<double>(acts - _lastActs);
        deltas["nrr_events"] = static_cast<double>(nrr - _lastNrr);
        deltas["refresh_commands"] =
            static_cast<double>(refresh - _lastRefresh);
        deltas["victim_rows_refreshed"] =
            static_cast<double>(victims - _lastVictims);
        deltas["bit_flips"] = static_cast<double>(flips - _lastFlips);
        deltas["buffered_rows"] =
            static_cast<double>(bufferedRows());
        for (const std::size_t idx :
             _alertEngine.onWindow(_windowIndex, deltas)) {
            obs::probeFor(_obs, 0).emit(
                end_cycle, obs::EventKind::Alert, Row::invalid(),
                static_cast<std::uint32_t>(idx));
            obs::probeFor(_obs, 0).count(end_cycle,
                                         "serve.alerts_fired");
        }
    }
    _lastActs = acts;
    _lastNrr = nrr;
    _lastRefresh = refresh;
    _lastVictims = victims;
    _lastFlips = flips;
    obs::probeFor(_obs, 0).count(end_cycle,
                                 "serve.windows_emitted");
}

void
Session::finalize()
{
    const sim::ActEngineResult result = _engine->finish();
    emitLine(strprintf(
        "{\"summary\":1,\"acts\":%llu,"
        "\"victim_rows_refreshed\":%llu,\"nrr_events\":%llu,"
        "\"refresh_commands\":%llu,\"bit_flips\":%llu,"
        "\"peak_disturbance\":%s,\"energy_overhead\":%s,"
        "\"windows\":%s}",
        static_cast<unsigned long long>(result.acts),
        static_cast<unsigned long long>(result.victimRowsRefreshed),
        static_cast<unsigned long long>(result.nrrEvents),
        static_cast<unsigned long long>(result.refreshCommands),
        static_cast<unsigned long long>(result.bitFlips),
        json::number(result.peakDisturbance).c_str(),
        json::number(result.refreshEnergyOverhead).c_str(),
        json::number(result.windows).c_str()));
    _jsonl.flush();
    _finalized = true;
    _state = State::Done;
}

void
Session::failWith(const Error &error)
{
    _failure = error.describe();
    // The artifact itself records the failure: a failed session is
    // diagnosable from its own output, not just driver logs.
    emitLine(strprintf("{\"error\":%s,\"code\":%s}",
                       json::quote(error.message()).c_str(),
                       json::quote(errorCodeName(error.code()))
                           .c_str()));
    _jsonl.flush();
    _state = State::Failed;
}

Session::QuantumOutcome
Session::runQuantum(std::uint64_t quantum_cycles)
{
    if (_state == State::Done)
        return QuantumOutcome::Done;
    if (_state == State::Failed)
        return QuantumOutcome::Failed;
    if (!_engine) {
        _failure = "session not started";
        _state = State::Failed;
        return QuantumOutcome::Failed;
    }
    if (quantum_cycles == 0)
        quantum_cycles = 1;

    const std::uint64_t horizon = _engine->horizon().value();
    const std::uint64_t stop = std::min(
        horizon, _engine->nextActCycle().value() + quantum_cycles);
    const std::uint64_t wc = _spec.windowCycles();

    for (;;) {
        const std::uint64_t boundary = (_windowIndex + 1) * wc;
        const bool completed =
            _engine->runUntil(Cycle{std::min(stop, boundary)});
        if (_pattern->failed()) {
            failWith(_pattern->error());
            return QuantumOutcome::Failed;
        }
        if (completed) {
            // The last (possibly partial) window closes at the
            // horizon — unless a boundary line already closed it
            // exactly there.
            if (horizon > _windowIndex * wc)
                emitWindowLine(Cycle{horizon});
            finalize();
            return QuantumOutcome::Done;
        }
        if (_engine->nextActCycle().value() >= boundary) {
            emitWindowLine(Cycle{boundary});
            ++_windowIndex;
            for (const auto &trigger : _forkTriggers) {
                if (trigger.first != _windowIndex)
                    continue;
                Result<void> forked =
                    writeForkArtifact(trigger.second);
                if (!forked.ok()) {
                    failWith(forked.error());
                    return QuantumOutcome::Failed;
                }
            }
        }
        if (_engine->nextActCycle().value() >= stop)
            return QuantumOutcome::Again;
    }
}

void
Session::savePayload(ckpt::Writer &w) const
{
    w.u64(_linesEmitted);
    w.u64(_windowIndex);
    w.boolean(_finalized);
    w.u64(_lastActs);
    w.u64(_lastNrr);
    w.u64(_lastRefresh);
    w.u64(_lastVictims);
    w.u64(_lastFlips);
    // Engine recursion covers the scheme, device, metrics, and —
    // through StreamPattern — the ingest buffer and source position.
    _engine->saveState(w);
}

void
Session::restorePayload(ckpt::Reader &r)
{
    _linesEmitted = r.u64();
    _windowIndex = r.u64();
    _finalized = r.boolean();
    _lastActs = r.u64();
    _lastNrr = r.u64();
    _lastRefresh = r.u64();
    _lastVictims = r.u64();
    _lastFlips = r.u64();
    _engine->restoreState(r);
}

Result<void>
Session::checkpoint()
{
    if (_state != State::Active && _state != State::Done)
        return Result<void>::success(); // nothing durable to record
    // JSONL before checkpoint: the recorded line count must never
    // exceed what a resume will find on disk.
    _jsonl.flush();
    if (!_jsonl)
        return Error(ErrorCode::Io,
                     strprintf("flush of '%s' failed",
                               jsonlPath().c_str()));
    Result<void> dir = ensureDir(_ckptDir);
    if (!dir.ok())
        return dir.error();

    ckpt::Writer w;
    savePayload(w);

    return ckpt::saveRotated(ckptPath(), _spec.fingerprint(), w.data());
}

Result<void>
Session::writeForkArtifact(const std::string &path)
{
    _jsonl.flush();
    if (!_jsonl)
        return Error(ErrorCode::Io,
                     strprintf("flush of '%s' failed",
                               jsonlPath().c_str()));
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        Result<void> dir = ensureDir(parent.string());
        if (!dir.ok())
            return dir.error();
    }
    ckpt::Writer w;
    savePayload(w);
    return ckpt::saveFile(path, _spec.fingerprint(), w.data());
}

} // namespace serve
} // namespace graphene
