/**
 * @file
 * ServeDriver: the multi-session streaming service (DESIGN.md §15).
 *
 * The driver multiplexes K admitted sessions over exp::Pool with
 * cooperative time-slicing: each session advances one *quantum* of
 * simulated cycles per scheduling turn via Pool::runResumable — a
 * session that still has work re-enqueues itself, one that finishes
 * (or fails, or is cancelled) retires. Work stealing balances
 * sessions of uneven length; the per-item total-order guarantee is
 * what lets a quantum mutate its session without locks; and because
 * each session's JSONL artifact is a pure function of its spec, the
 * service output is byte-identical for every --jobs count (the
 * jobs-determinism ctest runs 1/4/16).
 *
 * Lifecycle: admit() (bounded by maxSessions — the typed-error
 * admission control), run() executes scheduling *phases* until the
 * roster drains, drain-on-cancel checkpoints every live session so a
 * later --resume continues from the last durability point. Each
 * session's `session_<id>.gckp` is written when it starts, every
 * ckptEveryQuanta quanta, when it finishes and at drain; it holds the
 * spec, so --resume rebuilds the roster, fork children included, from
 * these files alone. Fork children materialize at phase boundaries:
 * a same-scheme fork warm-starts from the parent's window-boundary
 * artifact (startForked); a cross-scheme fork cannot transplant
 * engine state (the checkpoint fingerprint embeds the scheme) and
 * restarts the same stream spec from cycle zero under the new
 * scheme.
 */

#ifndef SERVE_DRIVER_HH
#define SERVE_DRIVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hh"
#include "obs/alerts.hh"
#include "obs/export.hh"
#include "obs/obs.hh"
#include "serve/session.hh"

namespace graphene {
namespace serve {

/** One requested fork, parsed from `<parent>@<window>:<child>` with
 *  an optional `:<scheme>` suffix for a cross-scheme restart. */
struct ForkSpec
{
    std::string parent;
    std::uint64_t window = 1; ///< Fires when this window completes.
    std::string child;
    /** Empty: warm same-scheme fork. A scheme name (as accepted by
     *  parseSchemeKind): cold restart under that scheme. */
    std::string scheme;
};

/** Parse a `<parent>@<window>:<child>[:<scheme>]` fork directive. */
Result<ForkSpec> parseForkSpec(const std::string &text);

/** Case-insensitive scheme-kind lookup ("graphene", "para", ...). */
Result<schemes::SchemeKind> parseSchemeKind(const std::string &name);

/** Service-level knobs (per-session knobs live in SessionSpec). */
struct DriverOptions
{
    /** Pool workers; 1 = the deterministic reference schedule. */
    unsigned jobs = 1;

    /** Simulated cycles per scheduling turn. */
    std::uint64_t quantumCycles = 500000;

    /** Admission-control capacity. */
    std::size_t maxSessions = 64;

    /** Checkpoint every N quanta per session; 0 = drain-time only. */
    unsigned ckptEveryQuanta = 8;

    /** Session JSONL directory. */
    std::string outDir = "serve-out";

    /** Checkpoint directory; empty = `<outDir>/ckpt`. */
    std::string ckptDir;

    /** Rebuild the roster from the session files in the checkpoint
     *  directory and resume every session from its own file. */
    bool resume = false;

    /** Observability sink shared by all sessions (never
     *  fingerprinted). */
    obs::Sink *obs = nullptr;

    std::vector<ForkSpec> forks;

    /**
     * Service telemetry (DESIGN.md §16): when enabled the driver
     * refreshes an atomically-rotated status.json health snapshot
     * every few quanta and, at drain, writes the deterministic
     * telemetry artifacts — rollup.jsonl, metrics.prom, alerts.jsonl
     * and the final status.json — into telemetryDir. Ignored (no
     * files at all) under GRAPHENE_OBS_OFF.
     */
    bool telemetry = false;

    /** Telemetry artifact directory; empty = outDir. */
    std::string telemetryDir;

    /** Alert rules file (obs/alerts.hh grammar); empty = no rules. */
    std::string alertRules;

    /** Refresh the live status snapshot every N scheduling turns
     *  (whole-service count); 0 = drain-time snapshot only. */
    unsigned statusEveryTurns = 16;
};

class ServeDriver
{
  public:
    explicit ServeDriver(DriverOptions opts);

    /**
     * Add one session to the roster. Typed errors: capacity
     * exhausted (InvalidArgument — the admission-control contract),
     * duplicate id, or an invalid spec.
     */
    Result<void> admit(const SessionSpec &spec);

    std::size_t sessionCount() const { return _slots.size(); }

    /** The admitted session named @p id, or null. */
    const Session *findSession(const std::string &id) const;

    /** What one run() concluded. */
    struct RunReport
    {
        std::size_t completed = 0;
        std::size_t failed = 0;
        std::size_t forked = 0;   ///< Children materialized.
        std::size_t resumed = 0;  ///< Sessions warm-started.
        std::size_t alertsFired = 0; ///< Offline-evaluated events.
        bool cancelled = false;   ///< Drained before the roster ended.
        std::vector<std::string> notes;
    };

    /**
     * Run the service to completion or cancellation: start (or
     * resume) every session, schedule quanta over the pool, fork at
     * phase boundaries, and drain — checkpoint every live session —
     * before returning. Only setup-level failures (unusable
     * directories, an unknown fork parent) are errors; per-session
     * failures are data in the report.
     */
    Result<RunReport> run(const CancelToken &cancel);

  private:
    /**
     * Lock-free mirror of one session's health, published by the
     * worker that owns the session after each quantum (the
     * runResumable per-item total order makes the owner unique) and
     * read by whichever worker wins the status-refresh flag. Held by
     * unique_ptr because atomics are not movable.
     */
    struct LiveStatus
    {
        std::atomic<std::uint8_t> state{0}; ///< Session::State.
        std::atomic<std::uint64_t> window{0};
        std::atomic<std::uint64_t> lines{0};
        std::atomic<std::uint64_t> buffered{0};
        std::atomic<std::uint64_t> alerts{0};
    };

    struct Slot
    {
        std::unique_ptr<Session> session;
        std::unique_ptr<LiveStatus> live;
        unsigned quanta = 0;
        bool started = false;
        std::string note; ///< Non-fatal per-session observations.
    };

    std::string ckptDir() const;
    std::string telemetryDir() const;
    std::string forkArtifactPath(const std::string &child) const;
    void admitFromSessionFiles(RunReport &report);
    void startSessions(RunReport &report);
    /** Session::checkpoint(), its failure kept as the slot's note. */
    void save(Slot &slot);
    std::size_t runPhase(const CancelToken &cancel);
    Result<void> materializeFork(const ForkSpec &fork,
                                 RunReport &report);
    void publishLive(Slot &slot);
    void maybeRefreshStatus();
    obs::ServiceStatus liveStatus() const;
    void writeTelemetry(RunReport &report);

    DriverOptions _opts;
    std::vector<Slot> _slots;
    std::vector<ForkSpec> _pendingForks;
    std::vector<obs::AlertRule> _rules;
    std::atomic<std::uint64_t> _turns{0};
    std::atomic_flag _statusBusy = ATOMIC_FLAG_INIT;
    std::atomic<std::uint64_t> _statusRefreshes{0};
};

} // namespace serve
} // namespace graphene

#endif // SERVE_DRIVER_HH
