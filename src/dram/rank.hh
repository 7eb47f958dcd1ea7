/**
 * @file
 * A DRAM rank: a set of banks sharing the auto-refresh machinery, the
 * Row Hammer fault model, and the NRR (nearby-row-refresh) command
 * extension the paper assumes (Section IV-A).
 */

#ifndef DRAM_RANK_HH
#define DRAM_RANK_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/fault_model.hh"
#include "dram/timing.hh"

namespace graphene {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

namespace dram {

/**
 * One rank of DRAM with per-bank fault models and an auto-refresh
 * schedule: a REF is due every tREFI, each REF refreshes the next
 * stripe of rows in every bank, and after tREFW / tREFI REFs every row
 * has been refreshed exactly once (the rotation the Graphene proof
 * relies on).
 */
class Rank
{
  public:
    Rank(const TimingParams &timing, unsigned num_banks,
         std::uint64_t rows_per_bank, const FaultConfig &fault_config);

    Bank &bank(unsigned idx);
    const Bank &bank(unsigned idx) const;
    unsigned numBanks() const
    {
        return static_cast<unsigned>(_banks.size());
    }
    std::uint64_t rowsPerBank() const { return _rowsPerBank; }

    FaultModel &faultModel(unsigned bank_idx);
    const FaultModel &faultModel(unsigned bank_idx) const;

    /** Cycle at which the next auto-refresh command is due. */
    Cycle nextRefreshDue() const { return _nextRefreshAt; }

    /**
     * Issue the periodic REF at @p cycle (>= nextRefreshDue()):
     * blocks every bank for tRFC and refreshes the next stripe of
     * rows in each bank.
     */
    void issueRefresh(Cycle cycle);

    /** Record an ACT in bank @p bank_idx for the fault model. */
    void notifyActivate(Cycle cycle, unsigned bank_idx, Row row);

    /**
     * Earliest cycle a new ACT may issue anywhere in the rank under
     * the four-activation-window constraint.
     */
    Cycle earliestFawAct(Cycle now) const;

    /** Record an issued ACT in the tFAW window (controller duty). */
    void recordFawAct(Cycle cycle);

    /**
     * Nearby Row Refresh: refresh the rows within @p distance of
     * @p aggressor in bank @p bank_idx. Blocks the bank for tRC per
     * refreshed row (the overhead model of Section V-B).
     *
     * @return the number of victim rows refreshed.
     */
    unsigned issueNrr(Cycle cycle, unsigned bank_idx, Row aggressor,
                      unsigned distance);

    /**
     * Refresh an explicit list of victim rows in bank @p bank_idx
     * (the row-range schemes' refresh path). Costs tRC of bank-busy
     * time per row, like NRR.
     */
    void refreshVictimRows(Cycle cycle, unsigned bank_idx,
                           const std::vector<Row> &rows);

    /**
     * Like refreshVictimRows() but without blocking the bank: the
     * caller owns the timing (e.g. a controller that interleaves a
     * large refresh burst with demand traffic in chunks).
     *
     * @return the bank-busy cycles the burst costs (rows x tRC).
     */
    Cycle refreshVictimRowsDeferred(unsigned bank_idx,
                                    const std::vector<Row> &rows);

    /** Number of REF commands issued so far. */
    std::uint64_t refreshCount() const { return _refreshCount; }

    /** Total victim rows refreshed by NRR so far. */
    std::uint64_t nrrRowCount() const { return _nrrRowCount; }

    /** Rows refreshed per REF command (the stripe size). */
    std::uint64_t rowsPerRefresh() const { return _rowsPerRefresh; }

    /**
     * Serialize the whole rank: every bank state machine, every
     * fault model, the refresh rotation, and the tFAW ring
     * (DESIGN.md §14).
     */
    void saveState(ckpt::Writer &w) const;

    /** Inverse of saveState() onto an identically configured rank. */
    void restoreState(ckpt::Reader &r);

  private:
    CycleTiming _cycles;         // analyze: ckpt-exempt(_cycles) config, rebuilt by the constructor
    std::uint64_t _rowsPerBank;  // analyze: ckpt-exempt(_rowsPerBank) config, rebuilt by the constructor
    std::vector<Bank> _banks;
    std::vector<FaultModel> _faults;

    std::uint64_t _refreshesPerWindow; // analyze: ckpt-exempt(_refreshesPerWindow) derived from timing
    std::uint64_t _rowsPerRefresh;     // analyze: ckpt-exempt(_rowsPerRefresh) derived from timing
    Row _refreshPointer{};
    Cycle _nextRefreshAt;
    std::uint64_t _refreshCount = 0;
    std::uint64_t _nrrRowCount = 0;
    /// Issue times of the last four ACTs (ring buffer).
    Cycle _fawActs[4] = {};
    unsigned _fawHead = 0;
    unsigned _fawCount = 0;
};

} // namespace dram
} // namespace graphene

#endif // DRAM_RANK_HH
