#include "core/tracker_misra_gries.hh"

#include "check/contracts.hh"
#include "common/bits.hh"

namespace graphene {
namespace core {

MisraGriesTracker::MisraGriesTracker(unsigned entries) : _table(entries)
{
}

std::string
MisraGriesTracker::name() const
{
    return "misra-gries";
}

ActCount
MisraGriesTracker::processActivation(Row row)
{
    const CounterTable::Result r = _table.processActivation(row);
    // A spilled activation is the only way to come back untracked;
    // any tracked outcome must report a count above the spillover
    // floor (Lemma 1 needs the carried-over base plus this ACT).
    GRAPHENE_ENSURES(r.spilled ||
                         r.estimatedCount > _table.spilloverCount(),
                     "tracked row fell to the spillover floor");
    return r.estimatedCount;
}

ActCount
MisraGriesTracker::estimatedCount(Row row) const
{
    return _table.estimatedCount(row);
}

void
MisraGriesTracker::reset()
{
    _table.reset();
}

TableCost
MisraGriesTracker::cost(std::uint64_t rows_per_bank) const
{
    // Address CAM + count CAM, full-width counts (the overflow-bit
    // layout optimisation applies equally to every entry-based
    // tracker, so the comparison uses raw widths throughout).
    TableCost cost;
    cost.entries = _table.numEntries();
    const unsigned addr_bits = bitsFor(rows_per_bank - 1);
    cost.camBits = cost.entries * (addr_bits + 21ULL);
    return cost;
}

double
MisraGriesTracker::overestimateBound(ActCount stream_length) const
{
    // A tracked row's estimate exceeds its actual count by at most
    // the spillover bound W / (Nentry + 1): the carried-over count
    // at its last insertion.
    return static_cast<double>(stream_length.value()) /
           (_table.numEntries() + 1.0);
}

} // namespace core
} // namespace graphene
