/**
 * @file
 * DDR4 timing parameters (paper Table I plus the Table III additions)
 * and conversions between nanoseconds and command-clock cycles.
 */

#ifndef DRAM_TIMING_HH
#define DRAM_TIMING_HH

#include <cstdint>

#include "common/types.hh"

namespace graphene {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

namespace dram {

/**
 * TimingParams converted to command-clock cycles, once. The bank,
 * rank and controller state machines add these on every command, so
 * they hold this struct instead of redoing the ns-to-cycle divide and
 * ceiling per access. TimingParams::inCycles() builds it.
 */
struct CycleTiming
{
    Cycle cREFI; ///< Refresh interval.
    Cycle cRFC;  ///< Refresh command time.
    Cycle cRC;   ///< ACT-to-ACT interval.
    Cycle cRCD;  ///< ACT-to-RD/WR delay.
    Cycle cRP;   ///< Precharge time.
    Cycle cCL;   ///< CAS latency.
    Cycle cRAS;  ///< ACT-to-PRE minimum.
    Cycle cBL;   ///< Burst on the bus.
    Cycle cFAW;  ///< Four-activation window.
};

/**
 * The DRAM timing parameters the Graphene derivation and the
 * memory-system simulator depend on. All values in nanoseconds;
 * cycle-domain accessors use the command clock period tCK.
 *
 * Defaults follow the paper: DDR4-2400, tREFI = 7.8us, tRFC = 350ns,
 * tRC = 45ns, tRCD = tRP = tCL = 13.3ns, tREFW = 64ms.
 */
struct TimingParams
{
    Nanoseconds tCK{1000.0 / 1200.0}; ///< Command clock period.
    Nanoseconds tREFI{7800.0};        ///< Refresh interval.
    Nanoseconds tRFC{350.0};          ///< Refresh command time.
    Nanoseconds tRC{45.0};            ///< ACT-to-ACT interval.
    Nanoseconds tRCD{13.3};           ///< ACT-to-RD/WR delay.
    Nanoseconds tRP{13.3};            ///< Precharge time.
    Nanoseconds tCL{13.3};            ///< CAS latency.
    /**
     * ACT-to-PRE minimum, chosen so that tRAS + tRP == tRC holds in
     * the cycle domain too (ceil(31.5/tCK) + ceil(13.3/tCK) ==
     * ceil(45/tCK) at DDR4-2400) — otherwise rounding would inflate
     * the effective ACT-to-ACT interval past tRC and silently lower
     * the maximum ACT rate that W is derived from.
     */
    Nanoseconds tRAS{31.5};
    Nanoseconds tBL{4 * 1000.0 / 1200.0}; ///< Burst (BL8) on the bus.
    Nanoseconds tREFW{64.0e6};        ///< Refresh window (64 ms).

    /**
     * Four-activation window: at most four ACTs to one rank per
     * tFAW. Irrelevant to the per-bank bound W (tRC dominates a
     * single bank) but it caps the *aggregate* ACT rate an attacker
     * can spread over many banks of a rank.
     */
    Nanoseconds tFAW{21.0};

    /** The paper's DDR4-2400 configuration. */
    static TimingParams ddr4_2400();

    /** Write every parameter as an exact f64, in declaration order
     *  (checkpoint payloads and config fingerprints). */
    void save(ckpt::Writer &w) const;

    /** Read what save() wrote. */
    static TimingParams load(ckpt::Reader &r);

    /** Convert a duration in nanoseconds to whole cycles (ceiling). */
    Cycle toCycles(Nanoseconds ns) const;

    /** Every parameter in cycles (see CycleTiming). */
    CycleTiming inCycles() const;

    /** tREFW in cycles (not in CycleTiming: nothing per-access reads it). */
    Cycle cREFW() const { return toCycles(tREFW); }
    /** tRC in cycles; the same value as inCycles().cRC. */
    Cycle cRC() const { return toCycles(tRC); }

    /**
     * Maximum number of ACTs a single bank can receive within one
     * reset window of tREFW / @p k — the paper's W (Section III-B):
     * W = tREFW * (1 - tRFC/tREFI) / tRC / k.
     */
    ActCount maxActsInWindow(unsigned k = 1) const;
};

} // namespace dram
} // namespace graphene

#endif // DRAM_TIMING_HH
