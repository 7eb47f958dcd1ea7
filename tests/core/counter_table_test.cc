/**
 * @file
 * Tests for the Misra-Gries counter table: the exact Figure 2
 * walkthrough, flowchart (Figure 1) semantics, and property-style
 * verification of Lemma 1 (estimated >= actual) and Lemma 2
 * (spillover <= W / (Nentry + 1)) over random, skewed, and
 * adversarial streams.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ckpt/io.hh"
#include "common/random.hh"
#include "common/zipf.hh"
#include "core/counter_table.hh"

namespace graphene {
namespace core {
namespace {

TEST(CounterTable, Figure2Walkthrough)
{
    // Initial state from the paper: three entries 0x1010:5, 0x2020:7,
    // 0x3030:3; spillover 2. Build it by feeding a stream that
    // produces exactly that state, then replay the figure's steps.
    CounterTable t(3);
    // Fill: 0x1010 x5, 0x2020 x7, 0x3030 x3, two misses on fresh
    // addresses raise spillover to... a miss with min count == spill
    // replaces instead. Construct directly: first occupy all slots.
    for (int i = 0; i < 5; ++i)
        t.processActivation(Row{0x1010});
    for (int i = 0; i < 7; ++i)
        t.processActivation(Row{0x2020});
    for (int i = 0; i < 1; ++i)
        t.processActivation(Row{0x3030});
    // Now counts are {5, 7, 1}, spillover 0. Misses on new addresses
    // replace the count-0... no entry has count 0 (all valid), the
    // min is 1 == ... spillover is 0, no entry equals 0, so a miss
    // bumps spillover to 1. Another miss then replaces 0x3030-like
    // minimum only when count == spillover. Drive spillover to 2 and
    // 0x3030 to 3 explicitly:
    t.processActivation(Row{0xAAAA}); // miss, no count==0 -> spill=1
    t.processActivation(Row{0x3030}); // hit -> 2
    t.processActivation(Row{0xBBBB}); // miss, no count==1 -> spill=2
    t.processActivation(Row{0x3030}); // hit -> 3

    ASSERT_EQ(t.estimatedCount(Row{0x1010}).value(), 5u);
    ASSERT_EQ(t.estimatedCount(Row{0x2020}).value(), 7u);
    ASSERT_EQ(t.estimatedCount(Row{0x3030}).value(), 3u);
    ASSERT_EQ(t.spilloverCount().value(), 2u);

    // Step 1 (Figure 2): ACT 0x1010 hits; count 5 -> 6.
    auto r1 = t.processActivation(Row{0x1010});
    EXPECT_TRUE(r1.hit);
    EXPECT_EQ(r1.estimatedCount.value(), 6u);

    // Step 2: ACT 0x4040 misses; no entry equals spillover 2
    // (counts are 6, 7, 3), so spillover -> 3.
    auto r2 = t.processActivation(Row{0x4040});
    EXPECT_TRUE(r2.spilled);
    EXPECT_EQ(t.spilloverCount().value(), 3u);
    EXPECT_FALSE(t.contains(Row{0x4040}));

    // Step 3: ACT 0x5050 misses; entry 0x3030 has count 3 ==
    // spillover, so it is replaced and the carried-over count
    // becomes 4 (not 1).
    auto r3 = t.processActivation(Row{0x5050});
    EXPECT_TRUE(r3.inserted);
    EXPECT_EQ(r3.estimatedCount.value(), 4u);
    EXPECT_FALSE(t.contains(Row{0x3030}));
    EXPECT_TRUE(t.contains(Row{0x5050}));
    EXPECT_EQ(t.spilloverCount().value(), 3u);
}

TEST(CounterTable, EmptyTableAbsorbsFirstAddresses)
{
    CounterTable t(4);
    for (Row r{100}; r < Row{104}; ++r) {
        auto result = t.processActivation(r);
        EXPECT_TRUE(result.inserted);
        EXPECT_EQ(result.estimatedCount.value(), 1u);
    }
    EXPECT_EQ(t.occupied(), 4u);
    EXPECT_EQ(t.spilloverCount().value(), 0u);
}

TEST(CounterTable, HitIncrementsOnlyThatEntry)
{
    CounterTable t(4);
    t.processActivation(Row{1});
    t.processActivation(Row{2});
    t.processActivation(Row{1});
    EXPECT_EQ(t.estimatedCount(Row{1}).value(), 2u);
    EXPECT_EQ(t.estimatedCount(Row{2}).value(), 1u);
}

TEST(CounterTable, MissWithoutCandidateSpills)
{
    CounterTable t(2);
    t.processActivation(Row{1});
    t.processActivation(Row{1});
    t.processActivation(Row{2});
    t.processActivation(Row{2});
    // counts {2, 2}, spillover 0: a miss cannot replace.
    auto r = t.processActivation(Row{3});
    EXPECT_TRUE(r.spilled);
    EXPECT_EQ(t.spilloverCount().value(), 1u);
}

TEST(CounterTable, ReplacementCarriesCountOver)
{
    CounterTable t(2);
    t.processActivation(Row{1}); // {1:1}
    t.processActivation(Row{2}); // {1:1, 2:1}
    t.processActivation(Row{3}); // spill -> 1
    t.processActivation(Row{4}); // 1 == count(1): replace, count 2
    EXPECT_FALSE(t.contains(Row{1}) && t.contains(Row{2}));
    EXPECT_EQ(t.estimatedCount(Row{4}).value(), 2u);
}

TEST(CounterTable, ResetClearsEverything)
{
    CounterTable t(4);
    for (int i = 0; i < 100; ++i)
        t.processActivation(Row{static_cast<Row::rep>(i % 7)});
    t.reset();
    EXPECT_EQ(t.spilloverCount().value(), 0u);
    EXPECT_EQ(t.streamLength().value(), 0u);
    EXPECT_EQ(t.occupied(), 0u);
    EXPECT_EQ(t.minEstimatedCount().value(), 0u);
    for (int i = 0; i < 7; ++i)
        EXPECT_FALSE(t.contains(Row{static_cast<Row::rep>(i)}));
    // The table is immediately reusable.
    auto r = t.processActivation(Row{9});
    EXPECT_TRUE(r.inserted);
    EXPECT_EQ(r.estimatedCount.value(), 1u);
}

TEST(CounterTable, ConservationOfStreamLength)
{
    CounterTable t(8);
    Rng rng(99);
    for (int i = 0; i < 5000; ++i)
        t.processActivation(Row{static_cast<Row::rep>(rng.nextRange(64))});
    std::uint64_t sum = t.spilloverCount().value();
    for (const auto &e : t.entries())
        sum += e.count.value();
    EXPECT_EQ(sum, 5000u);
}

/**
 * Property harness: run a stream while shadowing exact per-row
 * counts; check Lemma 1, Lemma 2, and the frequent-element guarantee
 * after every step (invariants) and at the end (guarantees).
 */
class StreamProperty
    : public ::testing::TestWithParam<
          std::tuple<std::string, unsigned, std::uint64_t>>
{
  protected:
    Row nextRow(Rng &rng, const std::string &kind, std::uint64_t i,
                ZipfSampler &zipf)
    {
        if (kind == "uniform")
            return Row{static_cast<Row::rep>(rng.nextRange(256))};
        if (kind == "zipf")
            return Row{static_cast<Row::rep>(zipf.sample(rng))};
        if (kind == "single")
            return Row{7};
        if (kind == "round-robin")
            return Row{static_cast<Row::rep>(i % 13)};
        if (kind == "two-phase") // hot rows, then a flood of misses
            return i < 2000 ? Row{static_cast<Row::rep>(i % 3)}
                            : Row{static_cast<Row::rep>(rng.nextRange(4096))};
        return Row{static_cast<Row::rep>(rng.nextRange(64))};
    }
};

TEST_P(StreamProperty, LemmasHoldThroughoutStream)
{
    const auto [kind, entries, seed] = GetParam();
    CounterTable table(entries);
    Rng rng(seed);
    ZipfSampler zipf(512, 0.99);
    std::map<Row, std::uint64_t> actual;

    const std::uint64_t stream_len = 20000;
    for (std::uint64_t i = 0; i < stream_len; ++i) {
        const Row row = nextRow(rng, kind, i, zipf);
        ++actual[row];
        table.processActivation(row);

        // Internal invariants (includes Lemma 2 and conservation).
        table.checkInvariants();

        // Lemma 1: estimated >= actual for every tracked row.
        if (i % 97 == 0) {
            for (const auto &e : table.entries()) {
                if (e.addr == Row::invalid())
                    continue;
                const auto it = actual.find(e.addr);
                const std::uint64_t act =
                    it == actual.end() ? 0 : it->second;
                ASSERT_GE(e.count.value(), act)
                    << kind << " row " << e.addr << " at step " << i;
            }
        }
    }

    // Frequent-elements guarantee: every row with actual count
    // > W / (Nentry + 1) must be present in the table.
    const double bound = static_cast<double>(stream_len) /
                         static_cast<double>(entries + 1);
    for (const auto &kv : actual) {
        if (static_cast<double>(kv.second) > bound) {
            EXPECT_TRUE(table.contains(kv.first))
                << kind << ": hot row " << kv.first << " with "
                << kv.second << " ACTs missing (bound " << bound
                << ")";
        }
    }
}

TEST(CounterTable, ResultReportsTheTouchedSlot)
{
    CounterTable t(2);
    const auto ins = t.processActivation(Row{10});
    EXPECT_TRUE(ins.inserted);
    ASSERT_NE(ins.slot, CounterTable::kNoSlot);
    EXPECT_EQ(t.entries()[ins.slot].addr, Row{10});

    const auto hit = t.processActivation(Row{10});
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.slot, ins.slot);

    // Fill the second slot, then force a pure spill: no slot touched.
    t.processActivation(Row{11});
    const auto spill = t.processActivation(Row{12});
    ASSERT_TRUE(spill.spilled);
    EXPECT_EQ(spill.slot, CounterTable::kNoSlot);
}

/** One stored entry of a hand-built checkpoint. */
struct StoredEntry
{
    std::uint32_t addr;
    std::uint64_t count;
};

/**
 * A CounterTable payload written field by field in saveState()'s
 * layout, so the restore-side checks see exactly the stored state.
 */
std::vector<std::uint8_t>
tablePayload(const std::vector<StoredEntry> &entries,
             const std::vector<std::pair<std::uint32_t,
                                         std::uint32_t>> &index,
             std::uint64_t spillover, std::uint64_t stream_length,
             std::uint32_t occupied)
{
    ckpt::Writer w;
    w.u64(entries.size());
    for (const StoredEntry &e : entries) {
        w.u32(e.addr);
        w.u64(e.count);
    }
    w.u64(index.size());
    for (const auto &[row, slot] : index) {
        w.u32(row);
        w.u32(slot);
    }
    w.u64(spillover);
    w.u64(stream_length);
    w.u32(occupied);
    return w.data();
}

/** Restore @p payload into a fresh two-entry table. */
bool
restores(const std::vector<std::uint8_t> &payload)
{
    CounterTable t(2);
    ckpt::Reader r(payload);
    t.restoreState(r);
    return r.finish().ok();
}

TEST(CounterTable, RestoreAcceptsAReachableState)
{
    // Row 5 hit three times, row 7 twice: what saveState() writes.
    EXPECT_TRUE(restores(
        tablePayload({{5, 3}, {7, 2}}, {{5, 0}, {7, 1}}, 0, 5, 2)));
}

TEST(CounterTable, RestoreRejectsAMismatchedIndex)
{
    // Each row indexed at the other's slot: contains() would answer
    // for the wrong count.
    EXPECT_FALSE(restores(
        tablePayload({{5, 3}, {7, 2}}, {{5, 1}, {7, 0}}, 0, 5, 2)));
}

TEST(CounterTable, RestoreRejectsADuplicateRow)
{
    // Index and occupancy agree with each other; only the entries
    // themselves show row 5 twice.
    EXPECT_FALSE(restores(
        tablePayload({{5, 3}, {5, 2}}, {{5, 0}}, 0, 5, 1)));
}

TEST(CounterTable, RestoreRejectsABadOccupancy)
{
    EXPECT_FALSE(restores(
        tablePayload({{5, 3}, {7, 2}}, {{5, 0}, {7, 1}}, 0, 5, 1)));
}

TEST(CounterTable, RestoreRejectsASubSpilloverCount)
{
    // Row 7's count sits below the spillover count; a later hit on it
    // would trip the Lemma 1 precondition.
    EXPECT_FALSE(restores(
        tablePayload({{5, 3}, {7, 1}}, {{5, 0}, {7, 1}}, 2, 6, 2)));
}

TEST(CounterTable, RestoreRejectsBrokenConservation)
{
    // Counts plus spillover (5) exceed the stream length (4).
    EXPECT_FALSE(restores(
        tablePayload({{5, 3}, {7, 2}}, {{5, 0}, {7, 1}}, 0, 4, 2)));
    // Restored, this table's next spill would break Lemma 2 and trip
    // a contract instead of failing the restore.
    EXPECT_FALSE(restores(
        tablePayload({{5, 3}, {7, 3}}, {{5, 0}, {7, 1}}, 2, 2, 2)));
}

TEST(CounterTable, RestoreRejectsAnOccupiedSlotAtCountZero)
{
    // Every inserted row starts at spillover + 1 >= 1.
    EXPECT_FALSE(restores(
        tablePayload({{5, 3}, {7, 0}}, {{5, 0}, {7, 1}}, 0, 3, 2)));
}

TEST(CounterTable, RestoreRejectsAnEmptySlotWithACount)
{
    // An unclaimed slot is (invalid, 0) until a miss takes it.
    EXPECT_FALSE(restores(tablePayload(
        {{5, 3}, {Row::invalid().value(), 2}}, {{5, 0}}, 0, 5, 1)));
}

TEST(CounterTable, SaveRestoreSaveIsByteIdentical)
{
    CounterTable t(4);
    Rng rng(17);
    for (int i = 0; i < 500; ++i)
        t.processActivation(Row{static_cast<std::uint32_t>(
            rng.nextRange(9))});
    ckpt::Writer first;
    t.saveState(first);

    CounterTable restored(4);
    ckpt::Reader r(first.data());
    restored.restoreState(r);
    ASSERT_TRUE(r.finish().ok());
    restored.checkInvariants();

    ckpt::Writer second;
    restored.saveState(second);
    EXPECT_EQ(first.data(), second.data());
}

INSTANTIATE_TEST_SUITE_P(
    Streams, StreamProperty,
    ::testing::Combine(
        ::testing::Values("uniform", "zipf", "single", "round-robin",
                          "two-phase"),
        ::testing::Values(2u, 4u, 16u, 64u),
        ::testing::Values(1u, 77u)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_n" +
                           std::to_string(std::get<1>(info.param)) +
                           "_s" +
                           std::to_string(std::get<2>(info.param));
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace core
} // namespace graphene
