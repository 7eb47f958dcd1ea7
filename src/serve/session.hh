/**
 * @file
 * One serving session: a resumable, forkable ACT-stream simulation
 * with windowed JSONL output (DESIGN.md §15).
 *
 * A Session owns one ActStreamEngine fed from an ActSource through a
 * StreamPattern, and advances in cooperative *quanta* (a bounded
 * number of cycles per runQuantum() call) so the ServeDriver can
 * multiplex many sessions over exp::Pool without threads blocking on
 * long runs. At every stats-window boundary it appends one flat
 * JSONL line of per-window counter deltas to its own artifact file;
 * at the horizon it appends one summary line and finishes.
 *
 * Determinism contract: the JSONL artifact is a pure function of the
 * SessionSpec. Window lines are emitted in window order from engine
 * state at exact cycle boundaries, each session writes only its own
 * file, and nothing in a line depends on scheduling — so the bytes
 * are identical for every --jobs count, across kill-and-resume, and
 * between a forked child and a fresh run (the tier-1 serve tests).
 *
 * Crash durability mirrors exp::Manifest: checkpoint() flushes the
 * JSONL *first*, then rotates `session_<id>.gckp` to `.prev` and
 * writes the new artifact atomically. The checkpoint records how
 * many lines were durable at save time; resume truncates the JSONL
 * back to that count (discarding any torn tail a SIGKILL left) and
 * re-emits deterministically from the restored engine.
 *
 * Forking: addForkTrigger(w, path) writes a checkpoint-format fork
 * artifact the moment window w completes — engine state exactly at
 * the boundary, framed with this session's fingerprint. The driver
 * materializes a child via startForked(), which replays the payload
 * into a fresh engine and copies the parent's first `linesEmitted`
 * JSONL lines, so the child's finished artifact is byte-identical to
 * a fresh run of the same spec.
 */

#ifndef SERVE_SESSION_HH
#define SERVE_SESSION_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "obs/alerts.hh"
#include "obs/obs.hh"
#include "schemes/factory.hh"
#include "serve/act_source.hh"
#include "sim/act_engine.hh"

namespace graphene {
namespace serve {

/** Everything needed to (re)build one session deterministically. */
struct SessionSpec
{
    /** Session identity; becomes the artifact filename stem, so it
     *  must be a non-empty [A-Za-z0-9_-]+ token. */
    std::string id;

    schemes::SchemeSpec scheme;
    SourceSpec source;

    std::uint64_t rowsPerBank = 65536;
    dram::TimingParams timing = dram::TimingParams::ddr4_2400();

    /** ACT intensity as a fraction of the maximum legal rate. */
    double actRate = 1.0;

    /** Simulated length in refresh windows (tREFW units). */
    double windows = 1.0;

    /** Stats-window length in cycles; 0 = tREFW/8. */
    std::uint64_t statsWindowCycles = 0;

    /** Ingest chunk size in rows (the bounded-memory knob). */
    std::size_t chunkRows = 4096;

    /** All rules checked, every violation listed (ErrorCollector). */
    Result<void> validate() const;

    /**
     * FNV-1a digest over every semantic field *including the id*:
     * frames the session checkpoint, so an artifact can only restore
     * onto the session that wrote it (fork artifacts are re-framed
     * for the child by the driver, which decodes with the parent's
     * digest first).
     */
    std::uint64_t fingerprint() const;

    /** The engine configuration this spec derives. */
    sim::ActEngineConfig engineConfig() const;

    /** Effective stats-window length (resolves the 0 default). */
    std::uint64_t windowCycles() const;

    void save(ckpt::Writer &w) const;
    static SessionSpec load(ckpt::Reader &r);
};

/** One multiplexed serving session. */
class Session
{
  public:
    enum class State : std::uint8_t
    {
        Fresh = 0,  ///< Constructed, not started.
        Active = 1, ///< Producing windows.
        Done = 2,   ///< Summary line written.
        Failed = 3, ///< Source/engine error; see failure().
    };

    /** What one quantum concluded. */
    enum class QuantumOutcome : std::uint8_t
    {
        Again,  ///< More work remains; re-enqueue.
        Done,   ///< Horizon reached, artifact complete.
        Failed, ///< Typed error latched; see failure().
    };

    /**
     * @param out_dir directory of `session_<id>.jsonl`.
     * @param ckpt_dir directory of `session_<id>.gckp` (+ `.prev`).
     */
    Session(SessionSpec spec, std::string out_dir,
            std::string ckpt_dir);

    const SessionSpec &spec() const { return _spec; }
    State state() const { return _state; }

    /** Full error report once state() == Failed. */
    const std::string &failure() const { return _failure; }

    std::string jsonlPath() const;
    std::string ckptPath() const;

    /** Completed stats windows (== fork-trigger coordinates). */
    std::uint64_t windowsEmitted() const { return _windowIndex; }

    /** JSONL lines written so far (window lines + summary). */
    std::uint64_t linesEmitted() const { return _linesEmitted; }

    /** Ingest-buffer high-water mark (bounded-memory evidence). */
    std::size_t peakBuffered() const;

    /** Attach observability before start*(); never fingerprinted. */
    void attachObs(obs::Sink *sink) { _obs = sink; }

    /**
     * Attach alert rules before start*(). The session builds its own
     * AlertEngine (streak state is session-local, so concurrent
     * sessions share no mutable telemetry state); `chunk` thresholds
     * resolve to this spec's chunkRows. Like the obs sink, rules are
     * never fingerprinted and never checkpointed: live streaks
     * restart on resume, and the canonical alerts artifact is
     * recomputed offline from the complete JSONL at drain.
     */
    void attachAlertRules(const std::vector<obs::AlertRule> *rules)
    {
        _alertRules = rules;
    }

    /** Live alert firings this process observed (not checkpointed;
     *  the deterministic count comes from obs::evaluateSeries). */
    std::uint64_t alertsFired() const
    {
        return _alertEngine.firedCount();
    }

    /** Ingest-buffer occupancy right now (telemetry gauge). */
    std::size_t bufferedRows() const
    {
        return _pattern ? _pattern->buffered() : 0;
    }

    /**
     * Arrange for a fork artifact at @p artifact_path the moment
     * window @p window completes. Call before/while Active; a
     * trigger for an already-passed window never fires.
     */
    void addForkTrigger(std::uint64_t window,
                        std::string artifact_path);

    /** Start fresh: truncate the JSONL, build source and engine. */
    Result<void> start();

    /**
     * Start from the newest valid checkpoint (`.gckp`, then
     * `.prev`), truncating the JSONL to the durable line count; falls
     * back to a fresh start — with the rejection reasons reported —
     * when no artifact decodes (never resumes from garbage). An empty
     * report source means the session started fresh.
     */
    Result<ckpt::LoadReport> startResumed();

    /**
     * Start as a warm fork: replay @p payload (a fork artifact's
     * decoded payload — the *driver* validates the parent framing)
     * into a fresh engine and seed the JSONL with the parent's
     * durable prefix from @p parent_jsonl.
     */
    Result<void> startForked(const std::vector<std::uint8_t> &payload,
                             const std::string &parent_jsonl);

    /**
     * Advance ~@p quantum_cycles, emitting any window lines crossed.
     * Returns Again while the horizon is ahead; Done exactly once
     * after the summary line; Failed with the typed error latched
     * (the artifact then ends with an `"error"` line — a failed
     * session is diagnosable from its own output).
     */
    QuantumOutcome runQuantum(std::uint64_t quantum_cycles);

    /**
     * Durability point: flush the JSONL, then rotate and atomically
     * write the session checkpoint (JSONL-before-ckpt ordering — the
     * recorded line count must never exceed what is on disk).
     */
    Result<void> checkpoint();

  private:
    Result<void> build();
    Result<void> openJsonl(bool truncate);
    void emitLine(const std::string &line);
    void emitWindowLine(Cycle end_cycle);
    void finalize();
    void failWith(const Error &error);
    void savePayload(ckpt::Writer &w) const;
    void restorePayload(ckpt::Reader &r);
    Result<void> writeForkArtifact(const std::string &path);

    SessionSpec _spec;
    std::string _outDir;
    std::string _ckptDir;
    obs::Sink *_obs = nullptr;
    const std::vector<obs::AlertRule> *_alertRules = nullptr;
    obs::AlertEngine _alertEngine;

    std::unique_ptr<ActSource> _source;
    std::unique_ptr<StreamPattern> _pattern;
    std::unique_ptr<sim::ActStreamEngine> _engine;
    std::ofstream _jsonl;

    State _state = State::Fresh;
    std::string _failure;
    std::uint64_t _windowIndex = 0;
    std::uint64_t _linesEmitted = 0;
    bool _finalized = false;

    // Cumulative counters at the last closed window (delta basis).
    std::uint64_t _lastActs = 0;
    std::uint64_t _lastNrr = 0;
    std::uint64_t _lastRefresh = 0;
    std::uint64_t _lastVictims = 0;
    std::uint64_t _lastFlips = 0;

    std::vector<std::pair<std::uint64_t, std::string>> _forkTriggers;
};

} // namespace serve
} // namespace graphene

#endif // SERVE_SESSION_HH
