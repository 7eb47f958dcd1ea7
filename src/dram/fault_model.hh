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
 * Storage is log, then sparse, then dense. Under unit weights no
 * row's count can exceed the number of ACTs its bank has received, so
 * while that number is below the threshold no row can flip. A fresh
 * unit-weight bank therefore only appends to a log of 4-byte entries:
 * an ACT's aggressor row, a refreshed row tagged with bit 31, or the
 * first row of a whole REF stripe tagged with bit 30. The log replays
 * once, through onActivate(), onRowRefresh() and onRefreshStripe() as
 * live ACTs and refreshes run, into the table below, and the bank
 * stays in the table for good. It replays on the ACT that could reach
 * the threshold (then applied to the table), when the log holds
 * numRows / 8 entries (a sixteenth of the dense array's bytes), or on
 * the first query that needs charges (disturbance(),
 * peakDisturbance(), dense(), saveState()). flips() needs none: it is
 * empty throughout the log. Replay sizes the table once for the log's
 * victims instead of doubling it in one burst. A sys-normal cell's
 * bank (0.01 tREFW) receives ~1.6k ACTs (median) against 50K and 81
 * REF stripes, so it never builds a table. Other weights, and tiny
 * banks, start in the table.
 *
 * The table is an open-addressed hash of only the rows disturbed since
 * their last refresh; building 64 dense banks per system-sim cell used
 * to cost more than simulating them. It doubles while it stays within
 * a quarter of the dense array's bytes; the insert that would take it
 * past that (more than 8Ki live rows in a 64Ki-row bank) switches the
 * bank, once and for good, to one cell per row; uniform attack
 * streams switch. All three modes hold the same values and write the
 * same checkpoint bytes, so the switches are invisible in every
 * result.
 *
 * The cell type follows the weights. When every mu is exactly 1.0 (the
 * system sim's {1.0}, the ACT engine's radius 1) a row's disturbance
 * is its ACT count, which a sum of 1.0s holds exactly, so a cell is a
 * 32-bit count with the flip latch in bit 31 and takes 8 bytes. Any
 * other weights keep a double per row in a 16-byte cell. Storage and
 * checkpoint code is written once over the cell type, and checkpoints
 * store a count as the double it equals, so the bytes do not depend
 * on the cell type either.
 */

#ifndef DRAM_FAULT_MODEL_HH
#define DRAM_FAULT_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <variant>
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

    /** A refresh (NRR or explicit victim) restores @p row. */
    void onRowRefresh(Row row);

    /** A REF restores @p rows rows from @p first on, wrapping; a
     *  logging bank logs it as one entry (stripes of one length). */
    void onRefreshStripe(Row first, std::uint64_t rows);

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
    double peakDisturbance() const
    {
        settle();
        return _peak;
    }

    std::uint64_t numRows() const { return _numRows; }
    unsigned blastRadius() const
    {
        return static_cast<unsigned>(_config.mu.size());
    }

    /** True while the bank is a log, with no charge table built. */
    bool logging() const { return _logging; }

    /** True once the bank has switched to one cell per row. */
    bool dense() const
    {
        settle();
        return _dense;
    }

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
     * One row's charge state under unit weights: its ACT count since
     * the last refresh, with the flip latch in bit 31. In the sparse
     * table key is row + 1 and 0 marks an empty slot; dense cells
     * leave it 0. Sparse slots and dense cells share this layout, so
     * "a quarter of the dense footprint" is a quarter of the row
     * count in slots, whichever the cell type.
     */
    struct CountCell
    {
        static constexpr std::uint32_t kFlipped = 1u << 31;
        std::uint32_t key = 0;
        std::uint32_t state = 0;

        double charge() const { return state & ~kFlipped; }
        bool flipped() const { return (state & kFlipped) != 0; }
        void latch() { state |= kFlipped; }
    };

    /** One row's charge state under any other weights (16 bytes). */
    struct ChargeCell
    {
        double disturbance = 0.0;
        std::uint32_t key = 0;
        bool latched = false;

        double charge() const { return disturbance; }
        bool flipped() const { return latched; }
        void latch() { latched = true; }
    };

    /// Smallest sparse table; banks too small for it start dense.
    static constexpr std::size_t kMinSlots = 16;

    /// Tag of a refreshed row in the log; untagged entries are ACTs.
    static constexpr std::uint32_t kRefreshTag = 1u << 31;

    /// Tag of a REF stripe's first row (_logStripeRows long).
    static constexpr std::uint32_t kStripeTag = 1u << 30;

    /** Append @p entry to the log; false (and the bank replays) when
     *  the log is full. */
    bool append(std::uint32_t entry);

    /** Leave the log: replay it into the table, for good. */
    void replay();

    /** Replay the log before a query that reads charges. Replay
     *  changes how the state is held, not its value, and writes only
     *  mutable members (no flip lands inside the log). */
    void settle() const
    {
        // An empty log has nothing to replay, so a fresh bank keeps
        // logging through a read or a checkpoint (a serve session is
        // checkpointed when it starts).
        if (_logging && !_log.empty())
            const_cast<FaultModel *>(this)->replay();
    }

    template <class Cell>
    void activate(std::vector<Cell> &cells, Cycle cycle, Row aggressor);

    template <class Cell>
    void deposit(std::vector<Cell> &cells, Cycle cycle, Row victim,
                 double amount);

    /** The cell of @p row, inserting an empty one if absent. */
    template <class Cell>
    Cell &cellFor(std::vector<Cell> &cells, Row row);

    /** First probe slot of @p row in the sparse table. */
    template <class Cell>
    static std::size_t homeSlot(const std::vector<Cell> &cells, Row row);

    /** The sparse slot holding @p row, or the empty slot ending its
     *  probe run (where an insert would put it). */
    template <class Cell>
    static std::size_t slotOf(const std::vector<Cell> &cells, Row row);

    /** Double the sparse table, or switch to dense past the cap. */
    template <class Cell>
    void grow(std::vector<Cell> &cells);

    /** Clear @p row's cell (backward-shift deletion when sparse). */
    template <class Cell>
    void clear(std::vector<Cell> &cells, Row row);

    template <class Cell>
    void saveCells(const std::vector<Cell> &cells,
                   ckpt::Writer &w) const;

    /** Refill @p cells from a saved live list; false on a charge or
     *  row the model cannot hold. */
    template <class Cell>
    bool restoreCells(std::vector<Cell> &cells, ckpt::Reader &r);

    /** Empty, sparse storage (dense when the bank is tiny). */
    void resetCells();

    FaultConfig _config;    // analyze: ckpt-exempt(_config) config, rebuilt by the constructor
    std::uint64_t _numRows; // analyze: ckpt-exempt(_numRows) config, rebuilt by the constructor
    /// Log mode: every entry since construction, in order (see the
    /// file comment). Unit weights only, and only while _logging.
    mutable std::vector<std::uint32_t> _log; // analyze: ckpt-exempt(_log) replayed into _cells before any save
    /// ACT entries in _log: an upper bound on every row's count.
    std::uint64_t _logActs = 0; // analyze: ckpt-exempt(_logActs) log bookkeeping, unused once replayed
    /// Length of every stripe in _log (0: none logged yet).
    std::uint64_t _logStripeRows = 0; // analyze: ckpt-exempt(_logStripeRows) log bookkeeping, unused once replayed
    mutable bool _logging = false; // analyze: ckpt-exempt(_logging) storage layout, a restore lands in the table
    /// Sparse: open-addressed table (power-of-two size, linear
    /// probing, load <= 1/2). Dense: one cell per row. Checkpoints
    /// carry the row-ordered live list, never the layout; restore
    /// refills the cells through cellFor(), which re-derives the mode.
    /// The constructor picks the cell type from mu, once.
    mutable std::variant<std::vector<CountCell>, std::vector<ChargeCell>>
        _cells; // analyze: ckpt-exempt(_cells) saved as the live-row list, refilled by cellFor()
    mutable bool _dense = false; // analyze: ckpt-exempt(_dense) storage layout, re-derived while restoring
    /// Occupied sparse slots (unused once dense).
    mutable std::size_t _live = 0; // analyze: ckpt-exempt(_live) storage layout, recounted while restoring
    std::vector<BitFlip> _flips;
    mutable double _peak = 0.0;
    /// Logical -> physical and inverse permutations (remap only):
    /// a pure function of the seeded config, so the constructor
    /// rebuilds them bit-identically.
    std::vector<Row> _toPhysical; // analyze: ckpt-exempt(_toPhysical) derived from remapSeed
    std::vector<Row> _toLogical;  // analyze: ckpt-exempt(_toLogical) derived from remapSeed
};

} // namespace dram
} // namespace graphene

#endif // DRAM_FAULT_MODEL_HH
