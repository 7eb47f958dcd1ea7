#include "core/counter_table.hh"

#include <algorithm>
#include <utility>

#include "check/contracts.hh"
#include "ckpt/io.hh"
#include "common/logging.hh"

namespace graphene {
namespace core {

namespace {

/** The (row, slot) pairs @p entries imply, sorted by row: checkpoint
 *  order. */
std::vector<std::pair<Row, unsigned>>
sortedIndex(const std::vector<CounterTable::Entry> &entries)
{
    std::vector<std::pair<Row, unsigned>> sorted;
    for (unsigned i = 0; i < entries.size(); ++i)
        if (entries[i].addr.isValid())
            sorted.emplace_back(entries[i].addr, i);
    std::sort(sorted.begin(), sorted.end());
    return sorted;
}

} // namespace

CounterTable::Result
CounterTable::processActivation(Row addr)
{
    Result result;
    ++_streamLength;

    unsigned slot = _summary.find(addr);
    if (slot != kNoSlot) {
        // Row address HIT: increment the estimated count.
        GRAPHENE_EXPECTS(entries()[slot].count >= _spillover,
                         "resident count below spillover (Lemma 1 "
                         "precondition)");
        result.hit = true;
        result.estimatedCount = _summary.increment(slot);
        result.slot = slot;
        GRAPHENE_ENSURES(result.estimatedCount > _spillover,
                         "hit must leave the count above spillover");
        return result;
    }

    // Every count is >= spillover, so an entry at the spillover count
    // exists iff the minimum sits there; take the lowest such slot.
    // The old count carries over (+1).
    slot = _summary.minSlot();
    if (entries()[slot].count == _spillover) {
        result.inserted = true;
        result.estimatedCount = _summary.replace(slot, addr);
        result.slot = slot;
        GRAPHENE_ENSURES(result.estimatedCount ==
                             _spillover + ActCount{1},
                         "inserted count must carry spillover + 1");
        return result;
    }

    // No replacement: the spillover count absorbs the activation.
    ++_spillover;
    result.spilled = true;
    // Lemma 2: a spill means every entry is strictly hotter than the
    // spillover count, so spillover <= W / (Nentry + 1) holds.
    GRAPHENE_INVARIANT(_spillover * (numEntries() + 1) <= _streamLength,
                       "spillover exceeded W / (Nentry + 1)");
    return result;
}

void
CounterTable::reset()
{
    _summary.clear();
    _spillover = ActCount{};
    _streamLength = ActCount{};
    GRAPHENE_ENSURES(occupied() == 0 &&
                         minEstimatedCount() == ActCount{},
                     "reset must clear all tracked state");
}

void
CounterTable::saveState(ckpt::Writer &w) const
{
    const std::vector<Entry> &entries = _summary.entries();
    w.u64(entries.size());
    for (const Entry &e : entries) {
        w.u32(e.addr.value());
        w.u64(e.count.value());
    }
    const std::vector<std::pair<Row, unsigned>> index =
        sortedIndex(entries);
    w.u64(index.size());
    for (const auto &[row, slot] : index) {
        w.u32(row.value());
        w.u32(slot);
    }
    w.u64(_spillover.value());
    w.u64(_streamLength.value());
    w.u32(_summary.occupied());
}

void
CounterTable::restoreState(ckpt::Reader &r)
{
    if (r.u64() != numEntries()) {
        r.fail();
        return;
    }
    std::vector<Entry> stored(numEntries());
    for (Entry &e : stored) {
        e.addr = Row(r.u32());
        e.count = ActCount(r.u64());
    }
    // No table ever holds one row in two slots.
    if (!_summary.assign(stored))
        r.fail();
    // The stored index must be exactly the one the entries imply.
    const std::vector<std::pair<Row, unsigned>> derived =
        sortedIndex(stored);
    if (r.u64() == derived.size()) {
        for (const auto &[row, slot] : derived) {
            const Row stored_row{r.u32()};
            const unsigned stored_slot = r.u32();
            if (stored_row != row || stored_slot != slot)
                r.fail();
        }
    } else {
        r.fail();
    }
    _spillover = ActCount(r.u64());
    _streamLength = ActCount(r.u64());
    if (r.u32() != derived.size() || violation() != nullptr)
        r.fail();
}

void
CounterTable::checkInvariants() const
{
    const char *broken = violation();
    GRAPHENE_CHECK(broken == nullptr, "counter table: %s", broken);
}

const char *
CounterTable::violation() const
{
    // Conservation (counts + spillover == streamLength), subtracted
    // piece by piece so no restored count can wrap a sum.
    ActCount left = _streamLength;
    for (const Entry &e : entries()) {
        if (e.addr.isValid() == (e.count == ActCount{}))
            return "an empty slot holds a count or a row holds none";
        // Replacement candidates sit exactly at spillover or nowhere.
        if (e.count < _spillover)
            return "a count fell below the spillover count";
        if (e.count > left)
            return "counts + spillover != stream length";
        left -= e.count;
    }
    if (left != _spillover)
        return "counts + spillover != stream length";
    // Lemma 2: spillover <= streamLength / (Nentry + 1).
    if (_spillover * (numEntries() + 1) > _streamLength)
        return "spillover exceeded W / (Nentry + 1)";
    return nullptr;
}

} // namespace core
} // namespace graphene
