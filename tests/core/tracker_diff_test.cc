/**
 * @file
 * Differential test: CounterTable and SpaceSavingTracker on
 * StreamSummary against the bucket-map implementations they replaced
 * (reference_counter_table.hh, reference_space_saving.hh).
 *
 * Each case runs one model-checker stream family (DESIGN.md §7) with
 * two seeds and resets every window through the new and the
 * reference tracker step-locked. CounterTable must agree on every
 * Result field and the spillover count after every step, and on
 * every slot and the checkpoint bytes at each audit stride, where it
 * is also restored from those bytes so its min-slot tree is rebuilt
 * from the entries alone. Space Saving must agree on the estimate and
 * minCount() after every step, and on every row's estimate at each
 * audit stride. The equal-count victim is the lowest slot in both, so
 * any other tie-break fails here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "check/model_checker.hh"
#include "ckpt/io.hh"
#include "core/counter_table.hh"
#include "core/tracker_space_saving.hh"
#include "reference_counter_table.hh"
#include "reference_space_saving.hh"

namespace graphene {
namespace core {
namespace {

std::vector<std::string>
familyNames()
{
    std::vector<std::string> names;
    for (const check::StreamFamily &f : check::standardFamilies())
        names.push_back(f.name);
    return names;
}

class TrackerDiff
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
  protected:
    check::ModelCheckConfig config() const
    {
        check::ModelCheckConfig c;
        c.tableEntries = std::get<1>(GetParam());
        // Enough rows that even the largest table overflows.
        c.numRows = std::max<std::uint64_t>(c.numRows, 4 * c.tableEntries);
        return c;
    }

    /** Drive @p step(row, i) over both seeds of this case's family,
     *  calling @p reset at every window boundary. */
    template <class Step, class Reset>
    void run(Step step, Reset reset) const
    {
        const check::ModelCheckConfig c = config();
        for (const check::StreamFamily &f : check::standardFamilies()) {
            if (f.name != std::get<0>(GetParam()))
                continue;
            for (unsigned s = 0; s < c.streamsPerFamily; ++s) {
                const auto pattern = f.make(c, c.seed + s);
                reset();
                for (std::uint64_t i = 0; i < c.streamLength; ++i) {
                    if (c.resetEvery != 0 && i != 0 &&
                        i % c.resetEvery == 0)
                        reset();
                    step(pattern->next(), i);
                    if (HasFatalFailure())
                        return;
                }
            }
            return;
        }
        FAIL() << "no family " << std::get<0>(GetParam());
    }
};

template <class Table>
std::vector<std::uint8_t>
save(const Table &t)
{
    ckpt::Writer w;
    t.saveState(w);
    return w.data();
}

TEST_P(TrackerDiff, CounterTableMatchesReference)
{
    const check::ModelCheckConfig c = config();
    CounterTable table(c.tableEntries);
    ref::CounterTable reference(c.tableEntries);
    run(
        [&](Row row, std::uint64_t i) {
            const CounterTable::Result got = table.processActivation(row);
            const ref::CounterTable::Result want =
                reference.processActivation(row);
            ASSERT_EQ(got.hit, want.hit) << "step " << i;
            ASSERT_EQ(got.inserted, want.inserted) << "step " << i;
            ASSERT_EQ(got.spilled, want.spilled) << "step " << i;
            ASSERT_EQ(got.estimatedCount, want.estimatedCount)
                << "step " << i;
            ASSERT_EQ(got.slot, want.slot) << "step " << i;
            ASSERT_EQ(table.spilloverCount(), reference.spilloverCount())
                << "step " << i;
            if (i % c.auditStride != 0)
                return;
            for (unsigned s = 0; s < c.tableEntries; ++s) {
                ASSERT_EQ(table.entries()[s].addr,
                          reference.entries()[s].addr)
                    << "slot " << s << " at step " << i;
                ASSERT_EQ(table.entries()[s].count,
                          reference.entries()[s].count)
                    << "slot " << s << " at step " << i;
            }
            const std::vector<std::uint8_t> bytes = save(reference);
            ASSERT_EQ(save(table), bytes) << "step " << i;
            ckpt::Reader r(bytes);
            table.restoreState(r);
            ASSERT_TRUE(r.finish().ok()) << "step " << i;
        },
        [&] {
            table.reset();
            reference.reset();
        });
}

TEST_P(TrackerDiff, SpaceSavingMatchesReference)
{
    const check::ModelCheckConfig c = config();
    SpaceSavingTracker tracker(c.tableEntries);
    ref::SpaceSavingTracker reference(c.tableEntries);
    run(
        [&](Row row, std::uint64_t i) {
            ASSERT_EQ(tracker.processActivation(row),
                      reference.processActivation(row))
                << "step " << i;
            ASSERT_EQ(tracker.minCount(), reference.minCount())
                << "step " << i;
            if (i % c.auditStride != 0)
                return;
            for (Row r{}; r.value() < c.numRows; ++r)
                ASSERT_EQ(tracker.estimatedCount(r),
                          reference.estimatedCount(r))
                    << "row " << r << " at step " << i;
        },
        [&] {
            tracker.reset();
            reference.reset();
        });
}

INSTANTIATE_TEST_SUITE_P(
    Families, TrackerDiff,
    ::testing::Combine(::testing::ValuesIn(familyNames()),
                       ::testing::Values(1u, 2u, 3u, 8u, 81u, 2600u)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_n" +
                           std::to_string(std::get<1>(info.param));
        for (char &ch : name)
            if (ch == '-' || ch == '.')
                ch = '_';
        return name;
    });

} // namespace
} // namespace core
} // namespace graphene
