/**
 * @file
 * The ACT-stream engine: drives one protected DRAM bank with a raw
 * row-activation pattern at a configurable fraction of the maximum
 * legal ACT rate, with full auto-refresh rotation and the Row Hammer
 * fault model engaged.
 *
 * This is the fast harness behind the security experiments
 * (Figure 7), the adversarial-pattern overhead numbers
 * (Figure 8(b)), and the scalability sweeps (Figure 9(b)-(c)): the
 * quantities those report — victim-row refreshes, refresh energy,
 * bit flips — are functions of the per-bank ACT stream alone, so no
 * core/controller model is needed.
 *
 * ActStreamEngine is the resumable form (DESIGN.md §14): it holds the
 * whole run as explicit state — device, scheme, pattern position,
 * metrics — and can serialize it between any two ACT slots, including
 * mid-tREFW with a partial refresh rotation and a half-filled tracker
 * table in flight. The kill-and-resume equivalence property (tier-1
 * test, CI SIGKILL leg) is stated against this class: run-to-
 * completion and checkpoint/discard/restore/continue must produce
 * byte-identical results. runActStream() remains the one-shot
 * wrapper every existing caller uses.
 */

#ifndef SIM_ACT_ENGINE_HH
#define SIM_ACT_ENGINE_HH

#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "common/cancel.hh"
#include "dram/rank.hh"
#include "obs/obs.hh"
#include "schemes/factory.hh"
#include "workloads/act_patterns.hh"

namespace graphene {
namespace sim {

/** Configuration of one ACT-stream run. */
struct ActEngineConfig
{
    schemes::SchemeSpec scheme;
    std::uint64_t rowsPerBank = 65536;
    dram::TimingParams timing = dram::TimingParams::ddr4_2400();

    /** ACT intensity as a fraction of the maximum legal rate. */
    double actRate = 1.0;

    /** Simulated length in refresh windows (tREFW units). */
    double windows = 1.0;

    /** Blast radius of the *physical* disturbance; usually equals
     *  scheme.blastRadius but can exceed it to model an
     *  under-provisioned defence. */
    unsigned faultRadius = 1;

    /** Physical Row Hammer threshold of the DRAM cells; defaults to
     *  the scheme's configured threshold. 0 = use scheme's. */
    std::uint64_t physicalThreshold = 0;

    /** Enable internal row remapping in the device (Section II-C). */
    bool remap = false;

    /** Seed of the remap permutation. */
    std::uint64_t remapSeed = 0xdecafbadULL;

    /**
     * Observability sink (null: no tracing); the single bank traces
     * as flat bank 0. Never fingerprinted — tracing cannot change
     * results or cache keys.
     */
    obs::Sink *obs = nullptr;

    /**
     * Check every configuration rule — rate, span, rows, and the
     * derived per-bank scheme spec — and report all violations in one
     * Config error (one note per broken rule).
     */
    Result<void> validate() const;
};

/** Aggregate outcome of one ACT-stream run. */
struct ActEngineResult
{
    std::uint64_t acts = 0;
    std::uint64_t victimRowsRefreshed = 0;
    std::uint64_t nrrEvents = 0;
    std::uint64_t refreshCommands = 0;
    std::uint64_t bitFlips = 0;

    /** Highest disturbance any victim accumulated between refreshes
     *  (the empirical Section III-C bound). */
    double peakDisturbance = 0.0;

    /** Refresh-energy overhead fraction (EnergyModel accounting). */
    double refreshEnergyOverhead = 0.0;

    /** Windows actually simulated. */
    double windows = 0.0;
};

/**
 * The resumable ACT-stream engine.
 *
 * One instance owns the simulated bank, the scheme, and the run
 * bookkeeping; the caller keeps ownership of the pattern (it is
 * restored in place on resume). A run proceeds in whole ACT steps:
 *
 *     ActStreamEngine engine(config, pattern);
 *     while (engine.step()) { ... }        // or engine.run()
 *     ActEngineResult r = engine.finish();
 *
 * Checkpoints are legal between any two steps. saveCheckpoint()
 * captures every mutable field — bank state machines, fault-model
 * cells, refresh rotation, scheme tracker, pattern position, RNG
 * streams, windowed metrics — inside a versioned, fingerprinted
 * container (ckpt::encode). restoreCheckpoint() onto a *freshly
 * constructed* engine with the same config and pattern kind rejects
 * truncated, corrupted, version-skewed, or config-mismatched bytes
 * with the typed ckpt errors and otherwise reproduces the source
 * engine exactly: continuing both engines yields identical artifacts
 * byte for byte.
 */
class ActStreamEngine
{
  public:
    /**
     * Build the engine; aborts (GRAPHENE_CHECK) if @p config fails
     * validate(), exactly as runActStream() always has.
     */
    ActStreamEngine(const ActEngineConfig &config,
                    workloads::ActPattern &pattern);

    /**
     * Execute one ACT slot: catch up the refresh rotation, issue one
     * activation, and run the scheme. @return false once the horizon
     * is reached (the partial slot's refresh catch-up still runs, so
     * stopping is deterministic). Safe to call after completion.
     */
    bool step();

    /**
     * Step until the next ACT slot would start at or after @p stop —
     * the boundary a serve session's quantum stops at to checkpoint.
     * @return true if the run completed before reaching @p stop.
     */
    bool runUntil(Cycle stop);

    /** Step to the horizon and finish(). */
    ActEngineResult run();

    /**
     * Step to the horizon unless @p cancel fires first (polled every
     * few thousand ACTs — the runner's per-cell watchdog uses this).
     * @return false if cancelled before the horizon; the engine state
     * stays valid (it can be checkpointed or even resumed).
     */
    bool runCancellable(const CancelToken &cancel);

    /**
     * Close the metrics series and fill the derived result fields
     * (flip counts, energy) from the device. Idempotent.
     */
    ActEngineResult finish();

    /** True once the horizon has been reached. */
    bool done() const { return _done; }

    /** Nominal start cycle of the next ACT slot. */
    Cycle nextActCycle() const
    {
        return Cycle{static_cast<std::uint64_t>(_nextAct)};
    }

    /** The run's end cycle (windows × tREFW, fixed at construction). */
    Cycle horizon() const { return _horizon; }

    /**
     * Cumulative progress counters, valid between any two steps —
     * the streaming service reads these at window boundaries to emit
     * per-window deltas without waiting for finish().
     */
    std::uint64_t actsSoFar() const { return _result.acts; }
    std::uint64_t nrrEventsSoFar() const { return _result.nrrEvents; }
    std::uint64_t refreshCommandsSoFar() const
    {
        return _result.refreshCommands;
    }
    std::uint64_t victimRowsRefreshedSoFar() const;
    std::uint64_t bitFlipsSoFar() const;

    /**
     * FNV-1a digest over every semantic knob of this run — scheme
     * spec, timing, rate, span, fault model, pattern name. Stored in
     * the checkpoint header; restore refuses a mismatch
     * (ErrorCode::CkptConfigMismatch) because state only transplants
     * onto an identically shaped engine.
     */
    std::uint64_t configFingerprint() const;

    /** Serialize the complete engine state (DESIGN.md §14). */
    void saveState(ckpt::Writer &w) const;

    /** Inverse of saveState(); flags malformed payloads on @p r. */
    void restoreState(ckpt::Reader &r);

    /** Full checkpoint container: header + framed saveState payload. */
    std::vector<std::uint8_t> saveCheckpoint() const;

    /**
     * Decode @p bytes (typed errors per corruption class) and restore.
     * On any error the engine is unspecified but destructible; build a
     * fresh one before retrying.
     */
    Result<void> restoreCheckpoint(const std::vector<std::uint8_t> &bytes);

  private:
    void applyAction(Cycle cycle);
    void catchUpRefresh(Cycle cycle);

    ActEngineConfig _config;          // analyze: ckpt-exempt(_config) config, fixed at construction
    workloads::ActPattern &_pattern;  // delegated via saveState recursion
    schemes::SchemeSpec _spec;        // analyze: ckpt-exempt(_spec) derived from config
    dram::Rank _rank;                 // delegated via saveState recursion
    std::unique_ptr<ProtectionScheme> _scheme; // delegated via saveState recursion
    obs::Probe _probe;                // analyze: ckpt-exempt(_probe) re-attached by the owner
    Cycle _horizon;                   // analyze: ckpt-exempt(_horizon) derived from config
    double _spacing;                  // analyze: ckpt-exempt(_spacing) derived from config
    RefreshAction _action;            // analyze: ckpt-exempt(_action) transient scratch, empty between steps
    double _nextAct = 0.0;
    bool _done = false;
    ActEngineResult _result;
};

/** Run @p pattern through one protected bank (one-shot wrapper). */
ActEngineResult runActStream(const ActEngineConfig &config,
                             workloads::ActPattern &pattern);

} // namespace sim
} // namespace graphene

#endif // SIM_ACT_ENGINE_HH
