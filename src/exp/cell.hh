/**
 * @file
 * The experiment job model.
 *
 * One Cell is one self-contained, independently executable unit of
 * an experiment sweep — e.g. "workload mcf under CBT at T_RH 50K".
 * Its identity is a CellKey (human-readable axes plus a content
 * fingerprint of the full spec); its work is a closure from a
 * CellContext (tracing sink, cancellation token) to a CellResult.
 * Cells never abort the sweep: expected failures (invalid derived
 * configs) come back as CellResult::error, keeping the grid shape
 * (the per-cell fault-isolation contract).
 *
 * An ExperimentSpec is one schedulable batch of cells. Sweeps whose
 * later cells consume earlier results (e.g. the overhead grid's
 * unprotected baselines feeding the weighted-speedup metric) run as
 * a sequence of ExperimentSpec stages — a layered DAG schedule:
 * cells within a stage are independent and run in parallel; stages
 * form the dependency edges.
 *
 * Result commitment is position-based: the runner writes outcome i
 * of stage s into slot i of the stage's result vector, whatever
 * thread executed it, which is what makes `--jobs N` byte-identical
 * to `--jobs 1` (DESIGN.md §10).
 */

#ifndef EXP_CELL_HH
#define EXP_CELL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace graphene {

class CancelToken;

namespace obs {
struct Sink;
} // namespace obs

namespace exp {

/** Identity of one cell. */
struct CellKey
{
    /** Which sweep the cell belongs to (JSONL label only; not part
     *  of the fingerprint, so identical specs share cache entries
     *  across experiments). */
    std::string experiment; // analyze: fp-exempt(experiment)

    /** Workload / pattern axis label. The digest hashes the
     *  workload's full parameter set instead (addWorkloadFields), so
     *  renaming a workload cannot split or alias cache entries. */
    std::string workload; // analyze: fp-exempt(workload)

    /** Scheme axis label; the digest hashes the full derived
     *  SchemeSpec instead (addSchemeFields). */
    std::string scheme; // analyze: fp-exempt(scheme)

    /** Content fingerprint of the full cell spec. */
    std::uint64_t fingerprint = 0;
};

/**
 * Named statistics of one executed cell: the union of the fields the
 * system, ACT-engine, and replay harnesses report. Harness-specific
 * fields stay zero where they do not apply.
 */
struct CellStats
{
    std::uint64_t acts = 0;
    std::uint64_t requests = 0;
    std::uint64_t victimRowsRefreshed = 0;
    std::uint64_t bitFlips = 0;
    double energyOverhead = 0.0;
    double perfLoss = 0.0;
    double rowHitRate = 0.0;
    double meanLatency = 0.0;
    double windows = 0.0;

    /** Per-core progress (full-system runs; baseline cells feed the
     *  weighted-speedup metric from here). */
    std::vector<std::uint64_t> coreRequests;

    friend bool operator==(const CellStats &,
                           const CellStats &) = default;
};

/** What a cell's body produces. */
struct CellResult
{
    CellStats stats;

    /** Empty on success; the full typed-error report when the cell
     *  was skipped (grid shape is preserved either way). */
    std::string error;

    bool skipped() const { return !error.empty(); }

    /** Set by the runner when the cell ran out of its wall-clock
     *  budget. Never persisted: timed-out cells are neither cached
     *  nor recorded. */
    bool timedOut = false;

    friend bool operator==(const CellResult &,
                           const CellResult &) = default;
};

/**
 * What the runner hands one attempt of a cell's body: a tracing sink
 * and the attempt's cancellation token.
 */
struct CellContext
{
    /** Events and windowed metrics go here; null when tracing is off.
     *  The sink never feeds back into the computation, so traced and
     *  untraced runs return byte-identical results. */
    obs::Sink *sink = nullptr;

    /** Armed with the per-cell wall-clock budget when one is set
     *  (RunOptions::cellTimeoutMs). Long bodies poll it at a coarse
     *  stride and return a skipped result once it trips; a body whose
     *  input timed out cancels it itself. The runner reports either
     *  as a timeout. */
    CancelToken &cancel;
};

/** One schedulable job. */
struct Cell
{
    CellKey key;

    /** The work: must be a pure function of the cell spec (any
     *  randomness seeded via deriveSeed over a spec fingerprint). */
    std::function<CellResult(const CellContext &)> body;
};

/** One batch of independent cells (one DAG layer). */
struct ExperimentSpec
{
    std::string name;
    std::vector<Cell> cells;
};

/**
 * The deterministic JSONL record of one cell: identity, stats, and
 * error, in a fixed field order. Volatile execution metadata (wall
 * time, cache hit/miss) deliberately lives in the runner's sidecar
 * records instead, so this line is byte-stable across thread counts
 * and cache states.
 */
std::string cellRecordLine(const CellKey &key,
                           const CellResult &result);

/**
 * Parse a cellRecordLine() back. Returns false (leaving outputs
 * untouched) on any malformed or missing field.
 */
bool parseCellRecordLine(const std::string &line, CellKey &key,
                         CellResult &result);

} // namespace exp
} // namespace graphene

#endif // EXP_CELL_HH
