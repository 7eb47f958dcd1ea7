/**
 * @file
 * The bucket-map CounterTable, kept as a differential reference.
 *
 * This is Graphene's table as it was before it moved onto
 * core::StreamSummary: an unordered index plus a count -> ordered
 * slot-set bucket map. core::CounterTable must agree with it on every
 * Result field, every slot, the spillover count and the checkpoint
 * bytes (tracker_diff_test.cc).
 *
 * The Misra-Gries counter table at the heart of Graphene
 * (paper Section III-A, Figures 1-2, and the CAM pseudo-code of
 * Figure 5).
 *
 * The table is an associative array of (row address, estimated count)
 * entries plus a spillover count register. On every activation:
 *
 *  - address hit: the entry's estimated count increments;
 *  - address miss, some entry's count equals the spillover count:
 *    that entry's address is replaced by the incoming address and its
 *    count increments (the old count carries over);
 *  - address miss otherwise: the spillover count increments.
 *
 * Guarantees (proved in Section III-C and asserted in the test
 * suite):
 *
 *  - Lemma 1: every entry's estimated count >= the actual number of
 *    activations of the corresponding row since the last reset;
 *  - Lemma 2: the spillover count never exceeds W / (Nentry + 1)
 *    after W activations.
 *
 * This model keeps full-precision logical counts; the overflow-bit
 * bit-width optimisation of Section IV-B changes only the physical
 * layout, which model::AreaModel accounts for.
 */

#ifndef TESTS_CORE_REFERENCE_COUNTER_TABLE_HH
#define TESTS_CORE_REFERENCE_COUNTER_TABLE_HH

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace graphene {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

namespace core {
namespace ref {

/**
 * Fixed-capacity Misra-Gries frequent-elements tracker over a stream
 * of DRAM row addresses.
 */
class CounterTable
{
  public:
    /** One associative entry. */
    struct Entry
    {
        Row addr = Row::invalid();
        ActCount count{};
    };

    /** Sentinel slot index meaning "no table entry was touched". */
    static constexpr unsigned kNoSlot = static_cast<unsigned>(-1);

    /** Outcome of one processActivation() call. */
    struct Result
    {
        bool hit = false;      ///< Address was already present.
        bool inserted = false; ///< Address replaced an entry.
        bool spilled = false;  ///< Spillover count incremented.
        /** Estimated count after the update (0 when spilled). */
        ActCount estimatedCount{};
        /** Slot updated by a hit or insert; kNoSlot when spilled. */
        unsigned slot = kNoSlot;
    };

    /** @param num_entries table capacity Nentry (must be > 0). */
    explicit CounterTable(unsigned num_entries);

    /** Process one activated row address (Figure 1 flow). */
    Result processActivation(Row addr);

    /** Clear the table and the spillover register (window reset). */
    void reset();

    ActCount spilloverCount() const { return _spillover; }

    /** @return true if @p addr currently occupies an entry. */
    bool contains(Row addr) const;

    /** Estimated count of @p addr, or 0 when absent. */
    ActCount estimatedCount(Row addr) const;

    unsigned numEntries() const
    {
        return static_cast<unsigned>(_entries.size());
    }

    /** Entries currently holding a valid address. */
    unsigned occupied() const { return _occupied; }

    /** Total activations processed since the last reset. */
    ActCount streamLength() const { return _streamLength; }

    /** Smallest estimated count over all entries (for invariants). */
    ActCount minEstimatedCount() const;

    const std::vector<Entry> &entries() const { return _entries; }

    /**
     * Panic unless the internal invariants hold: every count >= the
     * spillover count, spillover <= streamLength / (Nentry + 1), and
     * conservation (counts + spillover == streamLength). Used by the
     * property tests after every step.
     */
    void checkInvariants() const;

    /**
     * Serialize entries (slot order), the address index (sorted by
     * row), spillover, stream length and occupancy. The index and
     * the buckets are both derivable from the entries; the index is
     * still written so the format stays stable, and restoreState()
     * checks it against the derived one (DESIGN.md §14).
     */
    void saveState(ckpt::Writer &w) const;

    /**
     * Inverse of saveState() onto a same-capacity table. Rebuilds the
     * index from the entries and fails @p r unless the stored state
     * is one the table can reach: the stored index equals the derived
     * one, no row occupies two slots, the occupancy matches and no
     * count sits below the spillover count.
     */
    void restoreState(ckpt::Reader &r);

  private:
    void moveBucket(unsigned slot, ActCount from, ActCount to);

    std::vector<Entry> _entries;
    /// Map from row address to slot index.
    std::unordered_map<Row, unsigned> _index;
    /// Map from count value to the set of slots holding that count:
    /// every slot sits in exactly the bucket of its current count, so
    /// restoreState() rebuilds the map from the entries. The inner
    /// set is *ordered* by slot index on purpose: replacement takes
    /// the bucket's begin(), and with an unordered set that choice
    /// would depend on insertion history — state a checkpoint cannot
    /// capture — so a resumed run could evict a different (equally
    /// valid) slot and silently diverge from the uninterrupted one.
    std::unordered_map<ActCount, std::set<unsigned>>
        _buckets; // analyze: ckpt-exempt(_buckets) rebuilt from entries on restore
    ActCount _spillover{};
    ActCount _streamLength{};
    unsigned _occupied = 0;
};

} // namespace ref
} // namespace core
} // namespace graphene

#endif // TESTS_CORE_REFERENCE_COUNTER_TABLE_HH
