/**
 * @file
 * Per-bank DRAM state machine enforcing the row-cycle timing
 * constraints that bound the ACT rate (the basis of the paper's W).
 */

#ifndef DRAM_BANK_HH
#define DRAM_BANK_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/timing.hh"

namespace graphene {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

namespace dram {

/**
 * One DRAM bank: tracks the open row and the earliest cycles at which
 * each command class may legally issue. The controller must consult
 * earliestAct()/earliestReadWrite()/earliestPrecharge() and only then
 * call the corresponding issue method; issuing early is a simulator
 * bug and panics.
 */
class Bank
{
  public:
    Bank(const TimingParams &timing, std::uint64_t num_rows);

    /** @return true if a row is latched in the row buffer. */
    bool isOpen() const { return _openRow.isValid(); }

    /** @return the open row, or Row::invalid(). */
    Row openRow() const { return _openRow; }

    Cycle earliestAct(Cycle now) const;
    Cycle earliestReadWrite(Cycle now) const;
    Cycle earliestPrecharge(Cycle now) const;

    /** Activate @p row at @p cycle. The bank must be precharged. */
    void issueAct(Cycle cycle, Row row);

    /**
     * Column access to the open row at @p cycle.
     * @return the cycle at which data completes on the bus.
     */
    Cycle issueReadWrite(Cycle cycle);

    /** Precharge the open row at @p cycle. */
    void issuePrecharge(Cycle cycle);

    /**
     * Block the bank for an externally timed operation (REF or NRR)
     * ending at @p until. Closes the open row.
     */
    void block(Cycle from, Cycle until);

    /** Total ACTs this bank has received. */
    ActCount actCount() const { return _actCount; }

    std::uint64_t numRows() const { return _numRows; }

    /** Serialize the mutable state machine (DESIGN.md §14). */
    void saveState(ckpt::Writer &w) const;

    /** Inverse of saveState() onto an identically configured bank. */
    void restoreState(ckpt::Reader &r);

  private:
    CycleTiming _cycles;       // analyze: ckpt-exempt(_cycles) config, rebuilt by the constructor
    std::uint64_t _numRows;    // analyze: ckpt-exempt(_numRows) config, rebuilt by the constructor
    Row _openRow = Row::invalid();
    Cycle _actAllowedAt{};
    Cycle _rwAllowedAt{};
    Cycle _preAllowedAt{};
    Cycle _lastActAt{};
    bool _everActivated = false;
    ActCount _actCount{};
};

} // namespace dram
} // namespace graphene

#endif // DRAM_BANK_HH
