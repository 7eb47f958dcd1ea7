/**
 * @file
 * The trace-driven full-system simulator: 16 cores over 4 DDR4
 * channels (paper Table III), used for the end-to-end performance
 * results (Figure 8(c), Figure 9(d)) and the normal-workload refresh
 * energy numbers (Figure 8(a), Figure 9(b)).
 *
 * Core model: each core runs a synthetic trace generator; after a
 * request completes, the core computes for the generated think-time
 * gap and then issues its next request (in-order, memory-blocking —
 * the behaviour of the memory-bound phases that dominate the
 * evaluated applications). Progress is measured as requests completed
 * within the simulated horizon; the performance metric is the
 * weighted-speedup reduction versus an unprotected run of the same
 * traces, mirroring the paper's "speedup reduction due to victim row
 * refreshes".
 */

#ifndef SIM_SYSTEM_HH
#define SIM_SYSTEM_HH

#include <cstdint>
#include <vector>

#include "dram/address.hh"
#include "mem/controller.hh"
#include "schemes/factory.hh"
#include "workloads/profiles.hh"

namespace graphene {

class CancelToken;

namespace sim {

/** Static configuration of a full-system run (Table III defaults). */
struct SystemConfig
{
    unsigned numCores = 16;
    dram::Geometry geometry;
    dram::TimingParams timing = dram::TimingParams::ddr4_2400();
    schemes::SchemeSpec scheme;

    /** Simulated span in refresh windows (tREFW units). */
    double windows = 0.25;

    /**
     * Outstanding misses each core overlaps (its MSHR budget). The
     * 4-way OOO cores of Table III sustain several concurrent
     * long-latency misses; 4 reproduces the per-bank ACT rates the
     * paper's memory-intensive workloads exhibit.
     */
    unsigned memoryLevelParallelism = 4;

    std::uint64_t seed = 7;

    /** Physical fault-model threshold; 0 = scheme's threshold. */
    std::uint64_t physicalThreshold = 0;

    /**
     * Observability sink shared by every channel (null: no tracing).
     * Channels own disjoint flat-bank ranges (channel c's bank b is
     * flat bank c * banksPerRank + b). Never fingerprinted: tracing
     * cannot change results or cache keys.
     */
    obs::Sink *obs = nullptr;

    /**
     * Check every configuration rule — core count, simulated span,
     * geometry, and the derived per-bank scheme spec — and report all
     * violations in one Config error (one note per broken rule).
     */
    Result<void> validate() const;
};

/** Outcome of one full-system run. */
struct SystemResult
{
    std::vector<std::uint64_t> coreRequests;
    std::uint64_t requests = 0;
    std::uint64_t acts = 0;
    std::uint64_t victimRowsRefreshed = 0;
    std::uint64_t bitFlips = 0;
    double rowHitRate = 0.0;
    double refreshEnergyOverhead = 0.0;
    double windows = 0.0;

    /** Stopped early by the cancel token: every other field is
     *  partial and must not be reported. */
    bool cancelled = false;

    /**
     * Weighted-speedup loss versus @p baseline (an unprotected run
     * of the same configuration): 1 - WS / numCores.
     */
    double speedupLossVs(const SystemResult &baseline) const;
};

/**
 * Run @p workload on a system configured by @p config. With
 * @p cancel set, the token is polled every 8192 requests and the run
 * stops early (SystemResult::cancelled) once it trips.
 */
SystemResult runSystem(const SystemConfig &config,
                       const workloads::WorkloadSpec &workload,
                       const CancelToken *cancel = nullptr);

} // namespace sim
} // namespace graphene

#endif // SIM_SYSTEM_HH
