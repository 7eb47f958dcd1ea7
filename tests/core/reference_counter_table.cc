#include "reference_counter_table.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "check/contracts.hh"
#include "ckpt/io.hh"
#include "common/logging.hh"

namespace graphene {
namespace core {
namespace ref {

namespace {

/** @p map as (row, slot) pairs sorted by row: checkpoint order. */
std::vector<std::pair<Row, unsigned>>
sortedIndex(const std::unordered_map<Row, unsigned> &map)
{
    // analyze: allow(unordered-map-iteration) — sorted right below.
    std::vector<std::pair<Row, unsigned>> sorted(map.begin(),
                                                 map.end());
    std::sort(sorted.begin(), sorted.end());
    return sorted;
}

} // namespace

CounterTable::CounterTable(unsigned num_entries)
{
    GRAPHENE_CHECK(num_entries > 0,
                   "counter table: need at least one entry");
    _entries.resize(num_entries);
    // All slots start at count 0; they live in bucket 0 so the first
    // misses naturally claim them (count 0 == initial spillover 0).
    for (unsigned i = 0; i < num_entries; ++i)
        _buckets[ActCount{}].insert(i);
}

void
CounterTable::moveBucket(unsigned slot, ActCount from, ActCount to)
{
    auto it = _buckets.find(from);
    GRAPHENE_CHECK(it != _buckets.end() && it->second.erase(slot) != 0,
                   "counter table: bucket bookkeeping broken");
    if (it->second.empty())
        _buckets.erase(it);
    _buckets[to].insert(slot);
}

CounterTable::Result
CounterTable::processActivation(Row addr)
{
    Result result;
    ++_streamLength;

    auto hit = _index.find(addr);
    if (hit != _index.end()) {
        // Row address HIT: increment the estimated count.
        Entry &e = _entries[hit->second];
        GRAPHENE_EXPECTS(e.count >= _spillover,
                         "resident count below spillover (Lemma 1 "
                         "precondition)");
        moveBucket(hit->second, e.count, e.count + ActCount{1});
        ++e.count;
        result.hit = true;
        result.estimatedCount = e.count;
        result.slot = hit->second;
        GRAPHENE_ENSURES(e.count > _spillover,
                         "hit must leave the count above spillover");
        return result;
    }

    auto bucket = _buckets.find(_spillover);
    if (bucket != _buckets.end() && !bucket->second.empty()) {
        // Entry replace: take any entry whose count equals the
        // spillover count; the old count carries over (+1).
        const unsigned slot = *bucket->second.begin();
        Entry &e = _entries[slot];
        if (e.addr.isValid())
            _index.erase(e.addr);
        else
            ++_occupied;
        GRAPHENE_EXPECTS(e.count == _spillover,
                         "replacement candidate must sit exactly at "
                         "the spillover count (Figure 1 flow)");
        moveBucket(slot, e.count, e.count + ActCount{1});
        e.addr = addr;
        ++e.count;
        _index.emplace(addr, slot);
        result.inserted = true;
        result.estimatedCount = e.count;
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
    GRAPHENE_INVARIANT(_spillover * (_entries.size() + 1) <=
                           _streamLength,
                       "spillover exceeded W / (Nentry + 1)");
    return result;
}

void
CounterTable::reset()
{
    _index.clear();
    _buckets.clear();
    for (unsigned i = 0; i < _entries.size(); ++i) {
        _entries[i] = Entry{};
        _buckets[ActCount{}].insert(i);
    }
    _spillover = ActCount{};
    _streamLength = ActCount{};
    _occupied = 0;
    GRAPHENE_ENSURES(_index.empty() &&
                         minEstimatedCount() == ActCount{},
                     "reset must clear all tracked state");
}

bool
CounterTable::contains(Row addr) const
{
    return _index.find(addr) != _index.end();
}

ActCount
CounterTable::estimatedCount(Row addr) const
{
    auto it = _index.find(addr);
    return it == _index.end() ? ActCount{} : _entries[it->second].count;
}

ActCount
CounterTable::minEstimatedCount() const
{
    ActCount min = ActCount::max();
    for (const auto &e : _entries)
        min = e.count < min ? e.count : min;
    return min;
}

void
CounterTable::saveState(ckpt::Writer &w) const
{
    w.u64(_entries.size());
    for (const Entry &e : _entries) {
        w.u32(e.addr.value());
        w.u64(e.count.value());
    }
    const std::vector<std::pair<Row, unsigned>> index = sortedIndex(_index);
    w.u64(index.size());
    for (const auto &[row, slot] : index) {
        w.u32(row.value());
        w.u32(slot);
    }
    w.u64(_spillover.value());
    w.u64(_streamLength.value());
    w.u32(_occupied);
}

void
CounterTable::restoreState(ckpt::Reader &r)
{
    if (r.u64() != _entries.size()) {
        r.fail();
        return;
    }
    _index.clear();
    for (unsigned i = 0; i < _entries.size(); ++i) {
        Entry &e = _entries[i];
        e.addr = Row(r.u32());
        e.count = ActCount(r.u64());
        // No table ever holds one row in two slots.
        if (e.addr.isValid() && !_index.emplace(e.addr, i).second)
            r.fail();
    }
    // The stored index must be exactly the one the entries imply.
    const std::vector<std::pair<Row, unsigned>> derived = sortedIndex(_index);
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
    _occupied = r.u32();
    if (_occupied != derived.size() || minEstimatedCount() < _spillover)
        r.fail();
    _buckets.clear();
    for (unsigned i = 0; i < _entries.size(); ++i)
        _buckets[_entries[i].count].insert(i);
}

void
CounterTable::checkInvariants() const
{
    // Every estimated count >= spillover count (replacement candidates
    // always exist at exactly the spillover value or not at all).
    GRAPHENE_CHECK(minEstimatedCount() >= _spillover,
                   "a count fell below the spillover count");

    // Lemma 2: spillover <= streamLength / (Nentry + 1).
    GRAPHENE_CHECK(_spillover * (_entries.size() + 1) <= _streamLength,
                   "spillover exceeded W / (Nentry + 1)");

    // Conservation: spillover + sum(counts) == streamLength.
    ActCount sum = _spillover;
    for (const auto &e : _entries)
        sum += e.count;
    GRAPHENE_CHECK(sum == _streamLength,
                   "counts + spillover != stream length");
}

} // namespace ref
} // namespace core
} // namespace graphene
