/**
 * @file
 * Experiment orchestration: the workload x scheme comparison grids
 * behind Figures 8 and 9, expressed as exp:: cell batches and
 * executed on the deterministic work-stealing runner.
 *
 * Grid structure (a two-layer DAG):
 *
 *   stage "<label>/baseline": one unprotected run per workload —
 *     feeds the weighted-speedup metric;
 *   stage "<label>": one cell per (workload, scheme), each capturing
 *     its workload's baseline result.
 *
 * Every cell derives its RNG seed from a *traffic fingerprint* of
 * its spec that excludes the scheme axis, so the baseline and every
 * protected run of a workload see byte-identical traffic (the
 * paper's paired-run methodology), while different workloads,
 * configs, or base seeds decorrelate. Results are committed in spec
 * order: `--jobs 1` and `--jobs N` produce identical grids and
 * byte-identical JSONL artifacts.
 */

#ifndef SIM_EXPERIMENT_HH
#define SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "exp/runner.hh"
#include "sim/act_engine.hh"
#include "sim/system.hh"

namespace graphene {
namespace sim {

/** One cell of the Figure 8 comparison grid. */
struct OverheadRow
{
    std::string workload;
    std::string scheme;
    std::uint64_t victimRows = 0;
    std::uint64_t bitFlips = 0;
    double energyOverhead = 0.0;
    double perfLoss = 0.0;

    /**
     * Empty on success. When the cell's derived scheme configuration
     * fails validation, the full typed-error report lands here and
     * the cell is skipped instead of aborting the whole grid — one
     * bad (threshold, scheme) combination cannot take down an
     * overnight sweep.
     */
    std::string error;

    bool skipped() const { return !error.empty(); }
};

/**
 * Run every workload under every scheme (plus an unprotected
 * baseline per workload for the performance metric) on @p runner.
 * Cells whose scheme spec fails validation are reported via
 * OverheadRow::error rather than run; @p label names the stage in
 * artifacts and progress output. Cells honour the runner's per-cell
 * budget, and a protected cell whose baseline timed out times out
 * too: neither is cached nor recorded.
 */
std::vector<OverheadRow>
runOverheadGrid(const SystemConfig &base,
                const std::vector<workloads::WorkloadSpec> &suite,
                const std::vector<schemes::SchemeKind> &kinds,
                exp::Runner &runner,
                const std::string &label = "overhead-grid");

/**
 * Run every adversarial ACT pattern under every scheme via the
 * ACT-stream engine (Figure 8(b)) on @p runner. Pattern streams are
 * seeded from scheme-independent fingerprints, so every scheme faces
 * the identical attack stream. Invalid cells are skipped and
 * reported via OverheadRow::error, like runOverheadGrid().
 */
std::vector<OverheadRow>
runAdversarialGrid(const ActEngineConfig &base,
                   const std::vector<schemes::SchemeKind> &kinds,
                   std::uint64_t seed, exp::Runner &runner,
                   const std::string &label = "adversarial-grid");

/**
 * Content fingerprint of a scheme spec — the scheme-axis
 * contribution to every cell fingerprint (and hence cache key).
 * Exposed so the fingerprint and cache tests can assert its
 * sensitivity: any field change must change the digest.
 */
std::uint64_t schemeSpecDigest(const schemes::SchemeSpec &spec);

} // namespace sim
} // namespace graphene

#endif // SIM_EXPERIMENT_HH
