/**
 * @file
 * Shared declarations of the repository benchmark driver.
 *
 * Four workloads (populations) are defined in workloads.cc; each can
 * run untraced (the end-to-end batch, driven through the public
 * sim/exp/serve entry points) or traced (traced.cc: a replica of the
 * same batch rebuilt from the per-layer public calls, timed around
 * each call). The driver (driver.cc) prints one JSON object of raw
 * measurements; perfbench/run.py turns it into the benchmark result.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "serve/driver.hh"
#include "serve/session.hh"
#include "sim/act_engine.hh"
#include "sim/system.hh"

namespace perfbench {

namespace exp = graphene::exp;
namespace schemes = graphene::schemes;
namespace serve = graphene::serve;
namespace sim = graphene::sim;
namespace workloads = graphene::workloads;

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** The four populations; names are the benchmark's workload names. */
enum class Population
{
    SysNormal,
    ActAttack,
    ActLowTrh,
    ServeSoak,
};

const char *populationName(Population p);
bool parsePopulation(const std::string &name, Population &out);

/**
 * How big one batch of a population is. `full` is the workload as the
 * benchmark defines it; the traced run also uses a small slice of the
 * other populations to cover layers the named workload never reaches.
 */
struct Shape
{
    Population population = Population::SysNormal;
    bool full = true;
    std::uint64_t seed = 1;
    unsigned jobs = 4;
};

/** Fixed knobs of each population (see README.md for the reasons). */
sim::SystemConfig sysConfig(const Shape &shape);
std::vector<workloads::WorkloadSpec> sysSuite(const Shape &shape);
sim::ActEngineConfig actConfig(const Shape &shape);
std::vector<std::uint64_t> actSuiteSeeds(const Shape &shape);
std::vector<serve::SessionSpec> serveSpecs(const Shape &shape);
serve::DriverOptions serveOptions(const Shape &shape,
                                  const std::string &out_dir);

/**
 * The traffic seed sim::runOverheadGrid derives for @p workload's
 * cells (a replica of its private fingerprint, built from the public
 * exp::Fingerprint; the traced run's counter check proves it exact).
 */
std::uint64_t sysTrafficSeed(const sim::SystemConfig &base,
                             const workloads::WorkloadSpec &workload);

/** The pattern seed sim::runAdversarialGrid derives for one cell. */
std::uint64_t actPatternSeed(const sim::ActEngineConfig &base,
                             std::size_t pattern_index,
                             const std::string &pattern_name,
                             std::uint64_t suite_seed);

/** The per-channel controller config runSystem builds. */
graphene::mem::ControllerConfig
channelConfig(const sim::SystemConfig &config, unsigned channel);

/** One unit (grid cell or serve session) of a finished batch. */
struct Unit
{
    std::string id;        ///< Cell key or session id.
    std::string scheme;    ///< Scheme name ("none" for baselines).
    std::string record;    ///< Record line / session JSONL bytes.
    std::uint64_t acts = 0;
    std::uint64_t flips = 0;
    bool failed = false;   ///< Skipped, timed out or non-conserving.
    std::string note;      ///< Why it failed.
};

/** Everything one untraced batch produced. */
struct Batch
{
    std::vector<Unit> units;
    double wallSeconds = 0.0;
    /** Per-unit host wall (runner .meta wall_ms; whole soak for
     *  serve, whose sessions interleave). */
    std::vector<double> unitMs;
    /** Σ cell wall and Σ jobs × stage wall from the runner .meta. */
    double busyMs = 0.0;
    double capacityMs = 0.0;
    /** Host seconds of set-up: for a grid, its wall outside the
     *  stages' cell phases; for the soak, the driver's start path on a
     *  cancelled token, run just before the batch. */
    double setupSeconds = 0.0;
    std::uint64_t acts() const;
};

/** Run one untraced batch of @p shape, artifacts under @p out_dir. */
Batch runBatch(const Shape &shape, const std::string &out_dir);

/** The whole file at @p path (empty if unreadable). */
std::string readFile(const std::string &path);

/** True when @p scheme guarantees zero flips (Graphene/TWiCe/CBT). */
bool protectedScheme(const std::string &scheme);

/** Per-layer results of one traced batch. */
struct TraceResult
{
    std::map<std::string, double> metrics;
    std::uint64_t units = 0;
    std::uint64_t mismatches = 0;
    std::vector<std::string> notes;
    double untracedSeconds = 0.0;
    double tracedSeconds = 0.0;
    std::uint64_t spans = 0;
    /** Every Session::runQuantum wall, ms (serve-soak only). */
    std::vector<double> quantumMs;
};

/**
 * Run @p shape untraced (a reference batch, then a warm one that is
 * the overhead's base), then its traced replica; check the replica
 * reproduces the reference counters exactly. Spans are written to
 * @p out_dir/spans.<population>.tsv.
 */
TraceResult runTraced(const Shape &shape, const std::string &out_dir);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
