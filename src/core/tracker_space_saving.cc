#include "core/tracker_space_saving.hh"

#include "check/contracts.hh"
#include "common/bits.hh"
#include "common/logging.hh"

namespace graphene {
namespace core {

std::string
SpaceSavingTracker::name() const
{
    return "space-saving";
}

ActCount
SpaceSavingTracker::processActivation(Row row)
{
    ++_streamLength;

    const unsigned hit = _summary.find(row);
    if (hit != StreamSummary::kNoSlot)
        return _summary.increment(hit);

    // Replace the minimum-count entry; the newcomer inherits its
    // count plus one (the Space Saving rule).
    GRAPHENE_EXPECTS(_summary.minCount() * capacity() <= _streamLength,
                     "evicted minimum exceeds W / N — the estimate "
                     "bound the protection sizing relies on");
    return _summary.replace(_summary.minSlot(), row);
}

ActCount
SpaceSavingTracker::estimatedCount(Row row) const
{
    return _summary.count(row);
}

void
SpaceSavingTracker::reset()
{
    _summary.clear();
    _streamLength = ActCount{};
}

ActCount
SpaceSavingTracker::minCount() const
{
    return _summary.minCount();
}

void
SpaceSavingTracker::checkInvariants() const
{
    ActCount sum{};
    for (const auto &e : _summary.entries())
        sum += e.count;
    GRAPHENE_CHECK(sum == _streamLength,
                   "space saving: count mass != stream length");
    GRAPHENE_CHECK(minCount() * capacity() <= _streamLength,
                   "space saving: minimum exceeds W / N");
}

TableCost
SpaceSavingTracker::cost(std::uint64_t rows_per_bank) const
{
    TableCost cost;
    cost.entries = capacity();
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
    return static_cast<double>(stream_length.value()) / capacity();
}

} // namespace core
} // namespace graphene
