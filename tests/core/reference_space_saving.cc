#include "reference_space_saving.hh"

#include "check/contracts.hh"
#include "common/logging.hh"

namespace graphene {
namespace core {
namespace ref {

namespace {

unsigned
bitsFor(std::uint64_t n)
{
    unsigned bits = 0;
    while (n > 0) {
        ++bits;
        n >>= 1;
    }
    return bits == 0 ? 1u : bits;
}

} // namespace

SpaceSavingTracker::SpaceSavingTracker(unsigned entries)
    : _capacity(entries)
{
    GRAPHENE_CHECK(entries > 0,
                   "space saving: need at least one entry");
    _entries.reserve(entries);
}

std::string
SpaceSavingTracker::name() const
{
    return "space-saving";
}

void
SpaceSavingTracker::moveBucket(unsigned slot, std::uint64_t from,
                               std::uint64_t to)
{
    auto it = _buckets.find(from);
    GRAPHENE_CHECK(it != _buckets.end() && it->second.erase(slot) != 0,
                   "space saving: bucket bookkeeping broken");
    if (it->second.empty())
        _buckets.erase(it);
    _buckets[to].insert(slot);
}

ActCount
SpaceSavingTracker::processActivation(Row row)
{
    ++_streamLength;

    auto hit = _index.find(row);
    if (hit != _index.end()) {
        Entry &e = _entries[hit->second];
        moveBucket(hit->second, e.count, e.count + 1);
        return ActCount{++e.count};
    }

    if (_entries.size() < _capacity) {
        const auto slot = static_cast<unsigned>(_entries.size());
        _entries.push_back({row, 1});
        _index.emplace(row, slot);
        _buckets[1].insert(slot);
        GRAPHENE_ENSURES(_entries.size() <= _capacity,
                         "space saving grew past its capacity");
        return ActCount{1};
    }

    // Replace the minimum-count entry; the newcomer inherits its
    // count plus one (the Space Saving rule).
    auto min_bucket = _buckets.begin();
    const unsigned slot = *min_bucket->second.begin();
    Entry &e = _entries[slot];
    GRAPHENE_EXPECTS(e.count * _capacity <= _streamLength,
                     "evicted minimum exceeds W / N — the estimate "
                     "bound the protection sizing relies on");
    _index.erase(e.addr);
    moveBucket(slot, e.count, e.count + 1);
    e.addr = row;
    ++e.count;
    _index.emplace(row, slot);
    return ActCount{e.count};
}

ActCount
SpaceSavingTracker::estimatedCount(Row row) const
{
    auto it = _index.find(row);
    return it == _index.end() ? ActCount{}
                              : ActCount{_entries[it->second].count};
}

void
SpaceSavingTracker::reset()
{
    _entries.clear();
    _index.clear();
    _buckets.clear();
    _streamLength = 0;
}

ActCount
SpaceSavingTracker::minCount() const
{
    if (_entries.size() < _capacity)
        return ActCount{};
    return ActCount{_buckets.begin()->first};
}

void
SpaceSavingTracker::checkInvariants() const
{
    std::uint64_t sum = 0;
    for (const auto &e : _entries)
        sum += e.count;
    GRAPHENE_CHECK(sum == _streamLength,
                   "space saving: count mass != stream length");
    GRAPHENE_CHECK(_streamLength == 0 ||
                       minCount().value() * _capacity <= _streamLength,
                   "space saving: minimum exceeds W / N");
}

TableCost
SpaceSavingTracker::cost(std::uint64_t rows_per_bank) const
{
    TableCost cost;
    cost.entries = _capacity;
    const unsigned addr_bits = bitsFor(rows_per_bank - 1);
    // Same associative lookup needs as Misra-Gries, plus the
    // min-search takes the place of the spillover match.
    cost.camBits = cost.entries * (addr_bits + 21ULL);
    return cost;
}

double
SpaceSavingTracker::overestimateBound(ActCount stream_length) const
{
    // estimate - actual <= min at insertion <= W / N.
    return static_cast<double>(stream_length.value()) / _capacity;
}

} // namespace ref
} // namespace core
} // namespace graphene
