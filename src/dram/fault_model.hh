/**
 * @file
 * Physical Row Hammer fault model.
 *
 * The paper's evaluation asserts protection guarantees analytically;
 * this reproduction additionally *measures* them: every ACT deposits
 * charge disturbance into nearby rows (weighted by distance
 * coefficients mu_i, Section III-D), any refresh of a row restores its
 * charge, and a row whose accumulated disturbance reaches the Row
 * Hammer threshold suffers a recorded bit flip. A protection scheme is
 * sound iff no flips are recorded under any access pattern.
 *
 * Storage is sparse, then dense. A bank starts with an open-addressed
 * table holding only the rows disturbed since their last refresh, and
 * building 64 dense banks per system-sim cell used to cost more than
 * simulating them. The table doubles while it stays within a quarter
 * of the dense array's bytes; the insert that would take it past that
 * (more than 8Ki live rows in a 64Ki-row bank) switches the bank, once
 * and for good, to one cell per row. In Fig. 8's normal grid at spans
 * of 0.02, 0.25 and 1 tREFW every bank stayed sparse (at most ~8.1k
 * live rows); uniform attack streams switch. Both modes hold the same
 * values and write the same checkpoint bytes, so the switch is
 * invisible in every result.
 */

#ifndef DRAM_FAULT_MODEL_HH
#define DRAM_FAULT_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace graphene {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

namespace dram {

/** One observed Row Hammer bit flip. */
struct BitFlip
{
    Row victimRow;
    Cycle cycle;
    double disturbance;
};

/** Configuration of the disturbance physics. */
struct FaultConfig
{
    /**
     * Row Hammer threshold: the number of adjacent-row ACTs (without
     * an intervening refresh) that flips a bit. Default 50K per
     * TRRespass on DDR4.
     */
    double rowHammerThreshold = 50000.0;

    /**
     * Distance coefficients; mu[0] is the weight at distance 1
     * (always 1.0 in the paper's normalisation), mu[1] at distance 2,
     * and so on. The vector length is the blast radius n.
     */
    std::vector<double> mu = {1.0};

    /**
     * Internal row remapping (paper Section II-C): when true, the
     * device scrambles logical row addresses, so physically adjacent
     * rows are NOT logically adjacent. Schemes that refresh logical
     * neighbourhoods themselves (CBT's contiguous ranges) silently
     * miss the real victims; the in-DRAM NRR command is unaffected
     * because the device knows its own map.
     */
    bool remap = false;

    /** Seed of the remap permutation. */
    std::uint64_t remapSeed = 0xdecafbadULL;
};

/**
 * Tracks charge disturbance per row for one bank.
 */
class FaultModel
{
  public:
    FaultModel(const FaultConfig &config, std::uint64_t num_rows);

    /** Deposit disturbance into the neighbours of @p aggressor. */
    void onActivate(Cycle cycle, Row aggressor);

    /** A refresh (normal, REF stripe, or NRR victim) restores @p row. */
    void onRowRefresh(Row row);

    /**
     * The logical rows that are physically within @p distance of
     * @p aggressor — what the device's internal NRR must refresh.
     * Identity +/-d without remapping.
     */
    std::vector<Row> physicalNeighbors(Row aggressor,
                                       unsigned distance) const;

    /** True when the remap permutation is active. */
    bool remapped() const { return _config.remap; }

    /** Accumulated disturbance of @p row since its last refresh. */
    double disturbance(Row row) const;

    /** All flips observed so far (one per victim row per excursion). */
    const std::vector<BitFlip> &flips() const { return _flips; }

    /**
     * The highest disturbance any row ever accumulated between two of
     * its refreshes — the empirical counterpart of the Section III-C
     * bound 2(k+1)(T-1).
     */
    double peakDisturbance() const { return _peak; }

    std::uint64_t numRows() const { return _numRows; }
    unsigned blastRadius() const
    {
        return static_cast<unsigned>(_config.mu.size());
    }

    /** True once the bank has switched to one cell per row. */
    bool dense() const { return _dense; }

    /**
     * Serialize the charge state sparsely: only rows with non-default
     * cells (disturbed or flipped), in row order, plus the flip log
     * and the peak (DESIGN.md §14).
     */
    void saveState(ckpt::Writer &w) const;

    /** Inverse of saveState() onto an identically configured model. */
    void restoreState(ckpt::Reader &r);

  private:
    /**
     * One row's charge state. Sparse slots and dense cells share this
     * 16-byte layout, so "a quarter of the dense footprint" is a
     * quarter of the row count in slots. In the sparse table key is
     * row + 1 and 0 marks an empty slot; dense cells leave it 0.
     */
    struct Cell
    {
        double disturbance = 0.0;
        std::uint32_t key = 0;
        bool flipped = false;
    };

    /// Smallest sparse table; banks too small for it start dense.
    static constexpr std::size_t kMinSlots = 16;

    void deposit(Cycle cycle, Row victim, double amount);

    /** The cell of @p row, inserting an empty one if absent. */
    Cell &cellFor(Row row);

    /** First probe slot of @p row in the sparse table. */
    std::size_t homeSlot(Row row) const;

    /** The sparse slot holding @p row, or the empty slot ending its
     *  probe run (where an insert would put it). */
    std::size_t slotOf(Row row) const;

    /** Double the sparse table, or switch to dense past the cap. */
    void grow();

    /** Empty, sparse storage (dense when the bank is tiny). */
    void resetCells();

    FaultConfig _config;    // analyze: ckpt-exempt(_config) config, rebuilt by the constructor
    std::uint64_t _numRows; // analyze: ckpt-exempt(_numRows) config, rebuilt by the constructor
    /// Sparse: open-addressed table (power-of-two size, linear
    /// probing, load <= 1/2). Dense: one cell per row. Checkpoints
    /// carry the row-ordered live list, never the layout; restore
    /// refills the cells through cellFor(), which re-derives the mode.
    std::vector<Cell> _cells; // analyze: ckpt-exempt(_cells) saved as the live-row list, refilled by cellFor()
    bool _dense = false;      // analyze: ckpt-exempt(_dense) storage layout, re-derived while restoring
    /// Occupied sparse slots (unused once dense).
    std::size_t _live = 0;    // analyze: ckpt-exempt(_live) storage layout, recounted while restoring
    std::vector<BitFlip> _flips;
    double _peak = 0.0;
    /// Logical -> physical and inverse permutations (remap only):
    /// a pure function of the seeded config, so the constructor
    /// rebuilds them bit-identically.
    std::vector<Row> _toPhysical; // analyze: ckpt-exempt(_toPhysical) derived from remapSeed
    std::vector<Row> _toLogical;  // analyze: ckpt-exempt(_toLogical) derived from remapSeed
};

} // namespace dram
} // namespace graphene

#endif // DRAM_FAULT_MODEL_HH
