/**
 * @file
 * The experiment runner: executes an ExperimentSpec's cells on the
 * work-stealing pool, consults the content-addressed cache, commits
 * results in spec order, and emits the run's artifacts.
 *
 * Artifacts (when jsonlPath is set):
 *  - `<jsonlPath>`: one deterministic record per cell, in spec
 *    order (cellRecordLine) — byte-identical for every jobs count
 *    and every cache state with the same specs and code version;
 *  - `<jsonlPath>.meta`: one volatile record per cell (cache
 *    hit/miss, wall-clock ms) plus a trailing per-stage summary —
 *    everything nondeterministic lives here, keeping the primary
 *    artifact stable.
 *
 * A Runner outlives one run() call so multi-stage sweeps (the
 * baseline→cells DAG layers, fig9's per-threshold loop) share one
 * progress display, one artifact stream, and one accumulated
 * summary.
 */

#ifndef EXP_RUNNER_HH
#define EXP_RUNNER_HH

#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "exp/cache.hh"
#include "exp/cell.hh"
#include "exp/manifest.hh"
#include "exp/pool.hh"
#include "obs/ring.hh"
#include "obs/rollup.hh"

namespace graphene {
namespace exp {

struct RunOptions
{
    /** Worker threads; 0 = one per hardware thread. */
    unsigned jobs = 0;

    /** Cache directory; empty = caching off. */
    std::string cacheDir;

    /** Code-generation tag folded into every cache key. */
    std::string versionTag = kCodeVersion;

    /** Primary JSONL artifact path; empty = no artifacts. */
    std::string jsonlPath;

    /**
     * Observability output directory; empty = tracing off. Each
     * executed cell that opens its sink's metric windows writes
     * `<obsDir>/<experiment>_<workload>_<scheme>_<fp>.events.jsonl`
     * (+ `.trace.json`, `.metrics.jsonl`). Cache hits never execute,
     * so they produce no trace — run with a cold cache (or none) to
     * trace every cell. No effect under GRAPHENE_OBS_OFF.
     */
    std::string obsDir;

    /** Per-bank event-ring capacity of traced cells. */
    std::size_t obsRingCapacity = obs::kDefaultRingCapacity;

    /** Emit a live progress line to @p progressStream. */
    bool progress = false;

    /** Defaults to std::cerr (kept off stdout: tables live there). */
    std::ostream *progressStream = nullptr;

    /**
     * Crash-resume checkpoint directory; empty = checkpointing off.
     * Completed cells are recorded into `<ckptDir>/manifest.gckp`
     * (see exp::Manifest) so an interrupted sweep can be resumed.
     */
    std::string ckptDir;

    /** Persist the manifest every N completed cells (min 1). */
    std::size_t ckptEvery = 1;

    /**
     * Serve cells recorded in the latest valid manifest instead of
     * recomputing them. The primary JSONL artifact is still written
     * in full, byte-identical to an uninterrupted run, because
     * record lines are pure functions of the cell spec.
     */
    bool resume = false;

    /**
     * Per-cell wall-clock budget in milliseconds; 0 = unlimited.
     * Enforced cooperatively through CellContext::cancel (a
     * CancelToken deadline the body polls), never by killing
     * threads; a body that never polls runs to completion. A
     * timed-out cell reports an ErrorCode::Timeout-style error result
     * and is neither cached nor recorded in the manifest, so a later
     * resume retries it from scratch.
     */
    double cellTimeoutMs = 0.0;

    /** Extra attempts after a timeout before giving up (transient
     *  stalls — a loaded CI box — get a second chance). */
    unsigned cellRetries = 1;
};

/** Aggregate accounting across every run() call of one Runner. */
struct RunSummary
{
    std::size_t total = 0;     ///< Cells scheduled.
    std::size_t executed = 0;  ///< Cells actually computed.
    std::size_t cacheHits = 0; ///< Cells served from the cache.
    std::size_t resumed = 0;   ///< Cells served from the manifest.
    std::size_t timeouts = 0;  ///< Cells that exhausted their budget.
    std::size_t errors = 0;    ///< Cells that returned an error.
    double wallMs = 0.0;       ///< Wall time inside run() calls.

    double cacheHitRate() const
    {
        return total == 0
                   ? 0.0
                   : static_cast<double>(cacheHits) /
                         static_cast<double>(total);
    }

    /** One-line human rendering (bench drivers print this). */
    std::string describe() const;
};

class Runner
{
  public:
    explicit Runner(RunOptions options = {});
    ~Runner();

    /**
     * Execute one stage. results[i] corresponds to spec.cells[i];
     * the mapping never depends on the execution schedule.
     */
    std::vector<CellResult> run(const ExperimentSpec &spec);

    const RunSummary &summary() const { return _summary; }
    const RunOptions &options() const { return _options; }

  private:
    void openArtifacts();
    void openManifest();

    RunOptions _options;
    Pool _pool;
    std::ofstream _jsonl;
    std::ofstream _meta;
    bool _artifactsOpen = false;
    /// Crash-resume manifest (ckptDir set); shared across stages so
    /// a multi-stage sweep checkpoints as one unit.
    std::optional<Manifest> _manifest;
    bool _manifestOpen = false;
    /// Completions since the manifest was last persisted.
    std::size_t _sinceCkpt = 0;
    /// First manifest persist failure (reported once, then the run
    /// carries on without checkpoint durability).
    bool _manifestBroken = false;
    /// Cross-cell telemetry rollup, accumulated over every traced
    /// cell of every stage (none under GRAPHENE_OBS_OFF).
    obs::Rollup _obsRollup;
    RunSummary _summary;
};

/** One-shot convenience for single-stage experiments. */
std::vector<CellResult> runExperiment(const ExperimentSpec &spec,
                                      const RunOptions &options = {});

} // namespace exp
} // namespace graphene

#endif // EXP_RUNNER_HH
