/**
 * @file
 * The slot table under Graphene's CounterTable and Space Saving.
 *
 * On a miss Graphene replaces an entry whose count equals the
 * spillover count (paper Figure 1), Space Saving (Section VI) the
 * minimum-count entry. Every Graphene count is >= spillover, so both
 * take the lowest slot among those at the minimum count: the root of
 * an implicit tournament tree over (count, slot). The root depends on
 * the entries alone, not on update order, so a table rebuilt from
 * checkpointed entries evicts the slot the uninterrupted run would.
 */

#ifndef CORE_STREAM_SUMMARY_HH
#define CORE_STREAM_SUMMARY_HH

#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace graphene {
namespace core {

/** Nentry (row, count) slots, a row -> slot index, a min-slot tree. */
class StreamSummary
{
  public:
    /** One slot; an empty one is (Row::invalid(), 0). */
    struct Entry
    {
        Row addr = Row::invalid();
        ActCount count{};
    };

    /** find()'s answer for a row that holds no slot. */
    static constexpr unsigned kNoSlot = static_cast<unsigned>(-1);

    /** @param slots capacity Nentry (must be > 0); all slots empty. */
    explicit StreamSummary(unsigned slots);

    /** Slot holding @p row, or kNoSlot. */
    unsigned find(Row row) const
    {
        const auto it = _index.find(row);
        return it == _index.end() ? kNoSlot : it->second;
    }

    /** Count of @p row's slot, or 0 when it holds none. */
    ActCount count(Row row) const
    {
        const unsigned slot = find(row);
        return slot == kNoSlot ? ActCount{} : _entries[slot].count;
    }

    /** The lowest slot among those holding the minimum count. */
    unsigned minSlot() const { return _tree[1]; }
    ActCount minCount() const { return _entries[minSlot()].count; }

    /** Add one to @p slot's count. @return the new count. */
    ActCount increment(unsigned slot);

    /** Give @p slot to @p row; its count carries over, plus one. */
    ActCount replace(unsigned slot, Row row);

    /** Empty every slot. */
    void clear() { assign(std::vector<Entry>(_entries.size())); }

    /** Take same-capacity @p entries, rebuild the index and tree.
     *  @return false when a row occupies two slots. */
    bool assign(const std::vector<Entry> &entries);

    const std::vector<Entry> &entries() const { return _entries; }
    unsigned size() const { return static_cast<unsigned>(_entries.size()); }
    unsigned occupied() const { return static_cast<unsigned>(_index.size()); }

  private:
    /** Recompute tree node @p node from its two children. */
    void play(std::size_t node);

    std::vector<Entry> _entries;
    std::unordered_map<Row, unsigned> _index;
    /// Node i in [1, Nentry) holds the winner of nodes 2i and 2i + 1;
    /// node Nentry + s is slot s. Node 1 is the root.
    std::vector<unsigned>
        _tree; // analyze: ckpt-exempt(_tree) rebuilt from entries on restore
};

} // namespace core
} // namespace graphene

#endif // CORE_STREAM_SUMMARY_HH
