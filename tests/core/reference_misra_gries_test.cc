/**
 * @file
 * Differential test: the production CounterTable (a min-slot tree
 * for O(log Nentry) updates) against a deliberately naive,
 * obviously-correct Misra-Gries reference that follows the paper's
 * Figure 1 flowchart with linear scans. Any divergence in any slot
 * across long random streams is a bug in one of them.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "core/counter_table.hh"

namespace graphene {
namespace core {
namespace {

/** Straight-line transcription of the Figure 1 flowchart. */
class ReferenceMisraGries
{
  public:
    explicit ReferenceMisraGries(unsigned entries)
        : _entries(entries)
    {
    }

    /** @return the slot hit or replaced; kNoSlot on a spill. */
    unsigned
    activate(Row addr)
    {
        // Hit?
        for (unsigned i = 0; i < _table.size(); ++i) {
            if (_table[i].first == addr) {
                ++_table[i].second;
                return i;
            }
        }
        // Free or replaceable slot (count == spillover)?
        if (_table.size() < _entries) {
            // Model the hardware's invalid entries as count 0, which
            // only matches while the spillover count is still 0.
            if (_spillover == 0) {
                _table.emplace_back(addr, 1);
                return static_cast<unsigned>(_table.size() - 1);
            }
        }
        // The lowest slot at the spillover count: a checkpoint holds
        // only the slots, so a resumed run must make the same choice.
        for (unsigned i = 0; i < _table.size(); ++i) {
            if (_table[i].second == _spillover) {
                _table[i].first = addr;
                ++_table[i].second;
                return i;
            }
        }
        ++_spillover;
        return CounterTable::kNoSlot;
    }

    std::uint64_t
    count(Row addr) const
    {
        for (const auto &e : _table)
            if (e.first == addr)
                return e.second;
        return 0;
    }

    std::uint64_t spillover() const { return _spillover; }

    /** (addr, count) of slot @p i; unclaimed slots are (invalid, 0). */
    std::pair<Row, std::uint64_t>
    slot(unsigned i) const
    {
        return i < _table.size() ? _table[i]
                                 : std::make_pair(Row::invalid(),
                                                  std::uint64_t{0});
    }

  private:
    unsigned _entries;
    std::uint64_t _spillover = 0;
    std::vector<std::pair<Row, std::uint64_t>> _table;
};

class DifferentialStream
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(DifferentialStream, ObservableStateAlwaysMatches)
{
    const auto [entries, seed] = GetParam();
    CounterTable table(entries);
    ReferenceMisraGries reference(entries);
    Rng rng(seed);

    for (int i = 0; i < 30000; ++i) {
        // A mix of hot rows and a long uniform tail.
        const Row row = rng.bernoulli(0.4)
                            ? Row{static_cast<Row::rep>(rng.nextRange(3))}
                            : Row{static_cast<Row::rep>(rng.nextRange(500))};
        ASSERT_EQ(table.processActivation(row).slot,
                  reference.activate(row))
            << "step " << i;
        ASSERT_EQ(table.spilloverCount().value(), reference.spillover())
            << "step " << i;
        for (unsigned s = 0; s < entries; ++s) {
            const auto [addr, count] = reference.slot(s);
            ASSERT_EQ(table.entries()[s].addr, addr)
                << "slot " << s << " at step " << i;
            ASSERT_EQ(table.entries()[s].count.value(), count)
                << "slot " << s << " at step " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Tables, DifferentialStream,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 8u, 32u),
                       ::testing::Values(11u, 222u, 3333u)),
    [](const auto &info) {
        return "n" + std::to_string(std::get<0>(info.param)) + "_s" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace core
} // namespace graphene
