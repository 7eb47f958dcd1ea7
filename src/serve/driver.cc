#include "serve/driver.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <utility>

#include "ckpt/checkpoint.hh"
#include "exp/pool.hh"
#include "obs/rollup.hh"

namespace graphene {
namespace serve {

namespace fs = std::filesystem;

namespace {

std::string
lowercased(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
    });
    return out;
}

} // namespace

Result<schemes::SchemeKind>
parseSchemeKind(const std::string &name)
{
    const std::string key = lowercased(name);
    if (key == "none")
        return schemes::SchemeKind::None;
    if (key == "graphene")
        return schemes::SchemeKind::Graphene;
    if (key == "para")
        return schemes::SchemeKind::Para;
    if (key == "prohit")
        return schemes::SchemeKind::ProHit;
    if (key == "mrloc")
        return schemes::SchemeKind::MrLoc;
    if (key == "cbt")
        return schemes::SchemeKind::Cbt;
    if (key == "twice")
        return schemes::SchemeKind::TwiCe;
    return Error(ErrorCode::NotFound,
                 strprintf("unknown scheme '%s' (expected none, "
                           "Graphene, PARA, PRoHIT, MRLoc, CBT, or "
                           "TWiCe)",
                           name.c_str()));
}

Result<ForkSpec>
parseForkSpec(const std::string &text)
{
    const auto bad = [&](const char *why) {
        return Error(
            ErrorCode::Parse,
            strprintf("fork spec '%s': %s (expected "
                      "<parent>@<window>:<child>[:<scheme>])",
                      text.c_str(), why));
    };
    const std::size_t at = text.find('@');
    if (at == std::string::npos || at == 0)
        return bad("missing '<parent>@'");
    const std::size_t colon = text.find(':', at + 1);
    if (colon == std::string::npos || colon == at + 1)
        return bad("missing '@<window>:'");

    ForkSpec fork;
    fork.parent = text.substr(0, at);
    const std::string window = text.substr(at + 1, colon - at - 1);
    std::uint64_t value = 0;
    for (const char c : window) {
        if (c < '0' || c > '9')
            return bad("window must be a decimal integer");
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (value == 0)
        return bad("window must be >= 1");
    fork.window = value;

    std::string rest = text.substr(colon + 1);
    const std::size_t scheme_sep = rest.find(':');
    if (scheme_sep != std::string::npos) {
        fork.scheme = rest.substr(scheme_sep + 1);
        rest = rest.substr(0, scheme_sep);
        if (fork.scheme.empty())
            return bad("trailing ':' without a scheme name");
        const Result<schemes::SchemeKind> kind =
            parseSchemeKind(fork.scheme);
        if (!kind.ok())
            return kind.error();
    }
    if (rest.empty())
        return bad("missing child id");
    fork.child = rest;
    return fork;
}

ServeDriver::ServeDriver(DriverOptions opts) : _opts(std::move(opts))
{
    for (const ForkSpec &fork : _opts.forks)
        _pendingForks.push_back(fork);
}

std::string
ServeDriver::ckptDir() const
{
    return _opts.ckptDir.empty() ? _opts.outDir + "/ckpt"
                                 : _opts.ckptDir;
}

std::string
ServeDriver::telemetryDir() const
{
    return _opts.telemetryDir.empty() ? _opts.outDir
                                      : _opts.telemetryDir;
}

std::string
ServeDriver::forkArtifactPath(const std::string &child) const
{
    return (fs::path(ckptDir()) / ("fork_" + child + ".gckp"))
        .string();
}

const Session *
ServeDriver::findSession(const std::string &id) const
{
    for (const Slot &slot : _slots)
        if (slot.session->spec().id == id)
            return slot.session.get();
    return nullptr;
}

Result<void>
ServeDriver::admit(const SessionSpec &spec)
{
    if (_slots.size() >= _opts.maxSessions)
        return Error(
            ErrorCode::InvalidArgument,
            strprintf("admission refused: service is at capacity "
                      "(%zu session(s))",
                      _opts.maxSessions));
    if (findSession(spec.id) != nullptr)
        return Error(ErrorCode::InvalidArgument,
                     strprintf("admission refused: session id '%s' "
                               "already admitted",
                               spec.id.c_str()));
    const Result<void> valid = spec.validate();
    if (!valid.ok())
        return valid.error();

    Slot slot;
    slot.session =
        std::make_unique<Session>(spec, _opts.outDir, ckptDir());
    slot.session->attachObs(_opts.obs);
    slot.live = std::make_unique<LiveStatus>();
    _slots.push_back(std::move(slot));
    obs::probeFor(_opts.obs, 0).count(Cycle{0},
                                      "serve.sessions_admitted");
    return Result<void>::success();
}

void
ServeDriver::admitFromSessionFiles(RunReport &report)
{
    // A crash between saveRotated's rotation and its write leaves only
    // the `.prev`, so either file names a session.
    std::set<std::string> ids;
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(ckptDir(), ec)) {
        std::string name = entry.path().filename().string();
        if (name.ends_with(".prev"))
            name.resize(name.size() - 5);
        // session_<id>.gckp
        if (name.starts_with("session_") && name.ends_with(".gckp"))
            ids.insert(name.substr(8, name.size() - 8 - 5));
    }
    for (const std::string &id : ids) {
        // An admitted id is judged by its own startResumed(), which
        // notes a file written for a different spec.
        if (findSession(id) != nullptr)
            continue;
        const Result<SessionSpec> spec = Session::readSpec(ckptDir(), id);
        const Result<void> admitted =
            spec.ok() ? admit(spec.value()) : Result<void>(spec.error());
        if (!admitted.ok())
            report.notes.push_back("session '" + id +
                                   "' not resumed: " +
                                   admitted.error().message());
    }
}

void
ServeDriver::save(Slot &slot)
{
    const Result<void> saved = slot.session->checkpoint();
    if (!saved.ok() && slot.note.empty())
        slot.note = "checkpoint: " + saved.error().message();
}

void
ServeDriver::startSessions(RunReport &report)
{
    for (Slot &slot : _slots) {
        if (slot.started)
            continue;
        slot.session->attachAlertRules(&_rules);
        Result<void> started;
        if (_opts.resume) {
            Result<ckpt::LoadReport> resumed =
                slot.session->startResumed();
            if (resumed.ok()) {
                if (!resumed.value().source.empty())
                    ++report.resumed;
                for (const std::string &note : resumed.value().notes)
                    report.notes.push_back(
                        slot.session->spec().id + ": " + note);
            } else {
                started = resumed.error();
            }
        } else {
            started = slot.session->start();
        }
        if (started.ok()) {
            slot.started = true;
            publishLive(slot);
        } else {
            slot.note = started.error().describe();
        }
        // The file exists from the start on: a resume finds the
        // session, and retries one whose start failed.
        save(slot);
    }
}

void
ServeDriver::publishLive(Slot &slot)
{
    if (!slot.live)
        return;
    // Relaxed everywhere: each field is an independent gauge and the
    // snapshot writer tolerates a torn *set* (it reads monotonic
    // counters mid-run); the final deterministic snapshot at drain
    // reads the sessions directly, single-threaded.
    slot.live->state.store(
        static_cast<std::uint8_t>(slot.session->state()),
        std::memory_order_relaxed);
    slot.live->window.store(slot.session->windowsEmitted(),
                            std::memory_order_relaxed);
    slot.live->lines.store(slot.session->linesEmitted(),
                           std::memory_order_relaxed);
    slot.live->buffered.store(slot.session->bufferedRows(),
                              std::memory_order_relaxed);
    slot.live->alerts.store(slot.session->alertsFired(),
                            std::memory_order_relaxed);
}

obs::ServiceStatus
ServeDriver::liveStatus() const
{
    obs::ServiceStatus status;
    status.quantumCycles = _opts.quantumCycles;
    for (const Slot &slot : _slots) {
        obs::SessionStatus s;
        const SessionSpec &spec = slot.session->spec();
        s.id = spec.id;
        s.scheme = schemes::schemeKindName(spec.scheme.kind);
        s.source = spec.source.describe();
        s.chunkRows = spec.chunkRows;
        if (slot.started) {
            switch (static_cast<Session::State>(slot.live->state.load(
                std::memory_order_relaxed))) {
              case Session::State::Active:
                s.state = "running";
                break;
              case Session::State::Done:
                s.state = "done";
                break;
              case Session::State::Failed:
                s.state = "failed";
                break;
              case Session::State::Fresh:
                s.state = "pending";
                break;
            }
            s.lastWindow =
                slot.live->window.load(std::memory_order_relaxed);
            s.jsonlLines =
                slot.live->lines.load(std::memory_order_relaxed);
            s.bufferedRows =
                slot.live->buffered.load(std::memory_order_relaxed);
            s.alertsFired =
                slot.live->alerts.load(std::memory_order_relaxed);
        } else if (!slot.note.empty()) {
            s.state = "failed";
            s.failure = slot.note;
        }
        status.sessions.push_back(std::move(s));
    }
    status.finalize();
    return status;
}

void
ServeDriver::maybeRefreshStatus()
{
    if (!_opts.telemetry || !obs::kEnabled ||
        _opts.statusEveryTurns == 0)
        return;
    const std::uint64_t turn =
        _turns.fetch_add(1, std::memory_order_relaxed) + 1;
    if (turn % _opts.statusEveryTurns != 0)
        return;
    // One writer at a time; losers skip rather than queue — a status
    // snapshot is best-effort freshness, never worth a worker stall.
    if (_statusBusy.test_and_set(std::memory_order_acquire))
        return;
    const obs::ServiceStatus status = liveStatus();
    const std::string dir = telemetryDir();
    // Results deliberately consumed without failing the run: losing
    // a live snapshot must never kill the service.
    const Result<void> wrote =
        obs::writeStatusJson(dir + "/status.json", status);
    const std::uint64_t refreshes =
        _statusRefreshes.fetch_add(1, std::memory_order_relaxed) + 1;
    const auto now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    const Result<void> side = obs::writeStatusSidecar(
        dir + "/status.meta.json",
        static_cast<std::uint64_t>(now_ms), _opts.jobs, refreshes);
    (void)wrote.ok();
    (void)side.ok();
    _statusBusy.clear(std::memory_order_release);
}

std::size_t
ServeDriver::runPhase(const CancelToken &cancel)
{
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < _slots.size(); ++i)
        if (_slots[i].started &&
            _slots[i].session->state() == Session::State::Active)
            active.push_back(i);
    if (active.empty())
        return 0;

    exp::Pool pool(_opts.jobs);
    pool.runResumable(active.size(), [&](std::size_t i) -> bool {
        Slot &slot = _slots[active[i]];
        if (cancel.cancelled())
            return false; // graceful drain: retire, state persists
        const Session::QuantumOutcome outcome =
            slot.session->runQuantum(_opts.quantumCycles);
        ++slot.quanta;
        publishLive(slot);
        maybeRefreshStatus();
        const bool again = outcome == Session::QuantumOutcome::Again;
        // Also once at the finish, so a resume never reruns it.
        if (!again || (_opts.ckptEveryQuanta != 0 &&
                       slot.quanta % _opts.ckptEveryQuanta == 0))
            save(slot);
        return again;
    });
    return active.size();
}

Result<void>
ServeDriver::materializeFork(const ForkSpec &fork, RunReport &report)
{
    const Session *parent = findSession(fork.parent);
    const std::string artifact = forkArtifactPath(fork.child);
    std::error_code ec;
    if (!fs::exists(artifact, ec)) {
        report.notes.push_back(strprintf(
            "fork '%s': parent '%s' never completed window %llu "
            "(no artifact)",
            fork.child.c_str(), fork.parent.c_str(),
            static_cast<unsigned long long>(fork.window)));
        return Result<void>::success();
    }

    SessionSpec spec = parent->spec();
    spec.id = fork.child;
    bool warm = true;
    if (!fork.scheme.empty()) {
        const Result<schemes::SchemeKind> kind =
            parseSchemeKind(fork.scheme);
        if (!kind.ok())
            return kind.error();
        if (kind.value() != spec.scheme.kind) {
            // Engine state cannot transplant across schemes (the
            // checkpoint fingerprint embeds the scheme): a
            // cross-scheme fork restarts the identical stream spec
            // from cycle zero under the new scheme.
            spec.scheme.kind = kind.value();
            warm = false;
        }
    }

    if (_slots.size() >= _opts.maxSessions) {
        report.notes.push_back("fork '" + fork.child +
                               "': refused, service is at capacity");
        return Result<void>::success();
    }

    Slot slot;
    slot.session =
        std::make_unique<Session>(spec, _opts.outDir, ckptDir());
    slot.session->attachObs(_opts.obs);
    slot.session->attachAlertRules(&_rules);
    slot.live = std::make_unique<LiveStatus>();
    if (warm) {
        const Result<ckpt::Blob> blob = ckpt::loadFile(
            artifact, parent->spec().fingerprint());
        if (!blob.ok()) {
            report.notes.push_back("fork '" + fork.child +
                                   "': " + blob.error().message());
            return Result<void>::success();
        }
        const Result<void> started = slot.session->startForked(
            blob.value().payload, parent->jsonlPath());
        if (!started.ok()) {
            report.notes.push_back("fork '" + fork.child +
                                   "': " + started.error().message());
            return Result<void>::success();
        }
    } else {
        const Result<void> started = slot.session->start();
        if (!started.ok()) {
            report.notes.push_back("fork '" + fork.child +
                                   "': " + started.error().message());
            return Result<void>::success();
        }
    }
    slot.started = true;
    publishLive(slot);
    save(slot);
    _slots.push_back(std::move(slot));
    ++report.forked;
    obs::probeFor(_opts.obs, 0).count(Cycle{0},
                                      "serve.forks_materialized");
    return Result<void>::success();
}

Result<ServeDriver::RunReport>
ServeDriver::run(const CancelToken &cancel)
{
    RunReport report;
    if (_opts.telemetry && !_opts.alertRules.empty()) {
        // A bad rules file is an operator error, caught before any
        // session starts — not a per-session note.
        Result<std::vector<obs::AlertRule>> rules =
            obs::loadAlertRules(_opts.alertRules);
        if (!rules.ok())
            return rules.error();
        _rules = std::move(rules).value();
    }
    if (_opts.telemetry && obs::kEnabled) {
        // The live status writer needs the directory to exist before
        // the first mid-run snapshot.
        std::error_code ec;
        fs::create_directories(telemetryDir(), ec);
        if (ec)
            return Error(ErrorCode::Io,
                         strprintf("cannot create telemetry "
                                   "directory '%s': %s",
                                   telemetryDir().c_str(),
                                   ec.message().c_str()));
    }
    if (_opts.resume)
        admitFromSessionFiles(report);

    // Pre-flight every fork directive: bad directives are operator
    // errors, not per-session data.
    struct PendingFork
    {
        ForkSpec spec;
        bool registered = false;
    };
    std::vector<PendingFork> pending;
    for (const ForkSpec &fork : _pendingForks) {
        if (fork.window == 0)
            return Error(ErrorCode::InvalidArgument,
                         "fork window must be >= 1");
        if (findSession(fork.child) != nullptr)
            return Error(ErrorCode::InvalidArgument,
                         strprintf("fork child id '%s' is already an "
                                   "admitted session",
                                   fork.child.c_str()));
        for (const PendingFork &other : pending)
            if (other.spec.child == fork.child)
                return Error(
                    ErrorCode::InvalidArgument,
                    strprintf("fork child id '%s' used twice",
                              fork.child.c_str()));
        if (!fork.scheme.empty()) {
            const Result<schemes::SchemeKind> kind =
                parseSchemeKind(fork.scheme);
            if (!kind.ok())
                return kind.error();
        }
        pending.push_back(PendingFork{fork, false});
    }
    _pendingForks.clear();

    startSessions(report);

    // Register triggers on parents that exist now; chained forks
    // (parent itself a fork child) register when the child appears.
    const auto registerTriggers = [&]() {
        for (PendingFork &fork : pending) {
            if (fork.registered)
                continue;
            const Session *parent = findSession(fork.spec.parent);
            if (parent == nullptr)
                continue;
            // addForkTrigger mutates; look the slot up mutably.
            for (Slot &slot : _slots)
                if (slot.session->spec().id == fork.spec.parent)
                    slot.session->addForkTrigger(
                        fork.spec.window,
                        forkArtifactPath(fork.spec.child));
            fork.registered = true;
        }
    };
    registerTriggers();

    // Scheduling phases: each phase drains the current roster over
    // the pool; forks materialize between phases and run in the
    // next one.
    for (;;) {
        runPhase(cancel);
        if (cancel.cancelled()) {
            report.cancelled = true;
            break;
        }
        // Every started session is now terminal: fire what's ready.
        std::vector<PendingFork> still;
        for (PendingFork &fork : pending) {
            const Session *parent = findSession(fork.spec.parent);
            const bool parent_terminal =
                parent != nullptr &&
                (parent->state() == Session::State::Done ||
                 parent->state() == Session::State::Failed);
            if (!fork.registered || !parent_terminal) {
                still.push_back(fork);
                continue;
            }
            const Result<void> made =
                materializeFork(fork.spec, report);
            if (!made.ok())
                return made.error();
        }
        pending = std::move(still);
        registerTriggers();

        const bool any_active = std::any_of(
            _slots.begin(), _slots.end(), [](const Slot &slot) {
                return slot.started &&
                       slot.session->state() ==
                           Session::State::Active;
            });
        if (!any_active)
            break;
    }

    for (const PendingFork &fork : pending)
        report.notes.push_back(
            "fork '" + fork.spec.child + "': parent '" +
            fork.spec.parent +
            (fork.registered ? "' never became eligible"
                             : "' was never admitted"));

    // Drain: checkpoint everything still live so a --resume picks up
    // from this exact durability point (finished sessions wrote their
    // file when they finished).
    for (Slot &slot : _slots)
        if (slot.started &&
            slot.session->state() == Session::State::Active)
            save(slot);

    for (const Slot &slot : _slots) {
        if (!slot.started ||
            slot.session->state() == Session::State::Failed)
            ++report.failed;
        else if (slot.session->state() == Session::State::Done)
            ++report.completed;
        if (!slot.note.empty())
            report.notes.push_back(slot.session->spec().id + ": " +
                                   slot.note);
    }

    writeTelemetry(report);
    return report;
}

void
ServeDriver::writeTelemetry(RunReport &report)
{
    if (!_opts.telemetry || !obs::kEnabled)
        return;
    const std::string dir = telemetryDir();

    // Canonical path: everything below derives from the session JSONL
    // artifacts — which are pure functions of the specs — so rollup,
    // alerts, exposition, and the final status snapshot are
    // byte-identical across --jobs counts and across kill+resume,
    // however the live snapshots interleaved.
    obs::Rollup rollup;
    std::vector<obs::AlertEvent> events;
    std::map<std::string, std::uint64_t> offline_fired;

    std::vector<const Slot *> ordered;
    for (const Slot &slot : _slots)
        ordered.push_back(&slot);
    std::sort(ordered.begin(), ordered.end(),
              [](const Slot *a, const Slot *b) {
                  return a->session->spec().id < b->session->spec().id;
              });

    for (const Slot *slot : ordered) {
        if (!slot->started)
            continue; // no artifact was ever opened
        const std::string id = slot->session->spec().id;
        Result<obs::SessionSeries> series =
            obs::readServeJsonl(slot->session->jsonlPath(), id);
        if (!series.ok()) {
            report.notes.push_back("telemetry: " + id + ": " +
                                   series.error().message());
            continue;
        }
        const Result<void> conserved =
            obs::checkConservation(series.value());
        if (!conserved.ok())
            report.notes.push_back("telemetry: " + id + ": " +
                                   conserved.error().message());
        const std::vector<obs::AlertEvent> fired = obs::evaluateSeries(
            _rules, series.value(),
            static_cast<double>(slot->session->spec().chunkRows));
        offline_fired[id] = fired.size();
        events.insert(events.end(), fired.begin(), fired.end());
        rollup.add(std::move(series).value());
    }

    // Final deterministic status: read from the sessions directly
    // (single-threaded here), alert counts from the offline replay.
    obs::ServiceStatus status;
    status.quantumCycles = _opts.quantumCycles;
    for (const Slot *slot : ordered) {
        obs::SessionStatus s;
        const SessionSpec &spec = slot->session->spec();
        s.id = spec.id;
        s.scheme = schemes::schemeKindName(spec.scheme.kind);
        s.source = spec.source.describe();
        s.chunkRows = spec.chunkRows;
        if (!slot->started) {
            s.state = "failed";
            s.failure = slot->note;
        } else {
            switch (slot->session->state()) {
              case Session::State::Active:
                s.state = "running";
                break;
              case Session::State::Done:
                s.state = "done";
                break;
              case Session::State::Failed:
                s.state = "failed";
                s.failure = slot->session->failure();
                break;
              case Session::State::Fresh:
                s.state = "pending";
                break;
            }
            s.lastWindow = slot->session->windowsEmitted();
            s.jsonlLines = slot->session->linesEmitted();
            s.bufferedRows = slot->session->bufferedRows();
            s.alertsFired = offline_fired[spec.id];
        }
        status.sessions.push_back(std::move(s));
    }
    status.finalize();

    std::ofstream rollup_out(dir + "/rollup.jsonl",
                             std::ios::trunc);
    if (rollup_out)
        rollup.writeJsonl(rollup_out);
    std::ofstream alerts_out(dir + "/alerts.jsonl", std::ios::trunc);
    if (alerts_out)
        obs::writeAlertsJsonl(alerts_out, _rules, events);
    std::ofstream prom_out(dir + "/metrics.prom", std::ios::trunc);
    if (prom_out)
        obs::writeExposition(prom_out, rollup, status);
    if (!rollup_out || !alerts_out || !prom_out)
        report.notes.push_back(
            "telemetry: artifact write(s) failed in '" + dir + "'");

    const Result<void> wrote =
        obs::writeStatusJson(dir + "/status.json", status);
    if (!wrote.ok())
        report.notes.push_back("telemetry: " +
                               wrote.error().message());
    const auto now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    const Result<void> side = obs::writeStatusSidecar(
        dir + "/status.meta.json", static_cast<std::uint64_t>(now_ms),
        _opts.jobs,
        _statusRefreshes.load(std::memory_order_relaxed) + 1);
    if (!side.ok())
        report.notes.push_back("telemetry: " +
                               side.error().message());
    report.alertsFired = events.size();
}

} // namespace serve
} // namespace graphene
