#include "core/stream_summary.hh"

#include "check/contracts.hh"
#include "common/logging.hh"

namespace graphene {
namespace core {

StreamSummary::StreamSummary(unsigned slots)
    : _entries(slots), _tree(2 * std::size_t{slots})
{
    GRAPHENE_CHECK(slots > 0, "stream summary: need at least one slot");
    for (unsigned s = 0; s < slots; ++s)
        _tree[slots + s] = s;
    _index.reserve(slots);
    clear();
}

ActCount
StreamSummary::increment(unsigned slot)
{
    ++_entries[slot].count;
    for (std::size_t node = (size() + slot) / 2; node >= 1; node /= 2)
        play(node);
    return _entries[slot].count;
}

ActCount
StreamSummary::replace(unsigned slot, Row row)
{
    Entry &e = _entries[slot];
    if (e.addr.isValid())
        _index.erase(e.addr);
    e.addr = row;
    _index.emplace(row, slot);
    return increment(slot);
}

bool
StreamSummary::assign(const std::vector<Entry> &entries)
{
    GRAPHENE_EXPECTS(entries.size() == _entries.size(),
                     "stream summary: capacity changed on assign");
    _entries = entries;
    _index.clear();
    bool unique = true;
    for (unsigned s = 0; s < _entries.size(); ++s)
        if (_entries[s].addr.isValid() &&
            !_index.emplace(_entries[s].addr, s).second)
            unique = false;
    for (std::size_t node = _entries.size() - 1; node >= 1; --node)
        play(node);
    return unique;
}

void
StreamSummary::play(std::size_t node)
{
    // The eviction pick: the lower count wins, on a tie the lower slot.
    const unsigned l = _tree[2 * node];
    const unsigned r = _tree[2 * node + 1];
    const ActCount cl = _entries[l].count;
    const ActCount cr = _entries[r].count;
    _tree[node] = cr < cl || (cr == cl && r < l) ? r : l;
}

} // namespace core
} // namespace graphene
