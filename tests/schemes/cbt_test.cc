/**
 * @file
 * Tests for the counter-based tree: splitting, conservative count
 * inheritance, burst refreshes, and counter-budget handling.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "ckpt/io.hh"
#include "common/random.hh"
#include "schemes/cbt.hh"

namespace graphene {
namespace schemes {
namespace {

CbtConfig
smallConfig()
{
    CbtConfig c;
    c.numCounters = 8;
    c.levels = 3;
    c.rowHammerThreshold = 4000; // final threshold 1000
    c.rowsPerBank = 1024;
    return c;
}

TEST(Cbt, StartsWithOneRootCounter)
{
    Cbt cbt(smallConfig());
    EXPECT_EQ(cbt.allocatedCounters(), 1u);
    EXPECT_EQ(cbt.name(), "CBT-8");
}

TEST(Cbt, SplitThresholdsDoubleWithDepth)
{
    CbtConfig c = smallConfig();
    EXPECT_EQ(c.finalThreshold(), 1000u);
    EXPECT_EQ(c.splitThreshold(0), 125u);
    EXPECT_EQ(c.splitThreshold(1), 250u);
    EXPECT_EQ(c.splitThreshold(2), 500u);
    EXPECT_EQ(c.splitThreshold(3), 1000u);
}

TEST(Cbt, HotRowDeepensTree)
{
    Cbt cbt(smallConfig());
    RefreshAction action;
    for (std::uint64_t i = 0; i < 600; ++i)
        cbt.onActivate(Cycle{i}, Row{100}, action);
    // 600 ACTs pass level-0 (125), level-1 (250), level-2 (500)
    // splits: 3 splits -> 4 counters.
    EXPECT_EQ(cbt.allocatedCounters(), 4u);
}

TEST(Cbt, TriggerRefreshesCoveredRangePlusNeighbours)
{
    Cbt cbt(smallConfig());
    RefreshAction action;
    std::uint64_t trigger_step = 0;
    for (std::uint64_t i = 0; i < 2000 && trigger_step == 0; ++i) {
        action.clear();
        cbt.onActivate(Cycle{i}, Row{300}, action);
        if (!action.empty())
            trigger_step = i;
    }
    ASSERT_GT(trigger_step, 0u);
    // At max depth (level 3) each counter covers 1024/8 = 128 rows;
    // row 300 lands in [256, 384).
    std::set<Row> victims(action.victimRows.begin(),
                          action.victimRows.end());
    EXPECT_EQ(victims.size(), 128u + 2u);
    EXPECT_TRUE(victims.count(Row{300}));
    // Boundary neighbours of the [256, 384) range.
    EXPECT_TRUE(victims.count(Row{255}));
    EXPECT_TRUE(victims.count(Row{384}));
}

TEST(Cbt, CounterBudgetNeverExceeded)
{
    CbtConfig c = smallConfig();
    c.numCounters = 5;
    Cbt cbt(c);
    Rng rng(4);
    RefreshAction action;
    for (std::uint64_t i = 0; i < 50000; ++i) {
        action.clear();
        cbt.onActivate(Cycle{i},
                       Row{static_cast<Row::rep>(rng.nextRange(1024))},
                       action);
        ASSERT_LE(cbt.allocatedCounters(), 5u);
    }
}

TEST(Cbt, CountsUpperBoundActualPerRow)
{
    // The covering counter's count must always be >= the actual ACT
    // count of every row it covers (the no-false-negative property).
    // With count inheritance on split this holds by construction; we
    // verify empirically: no row reaches finalThreshold actual ACTs
    // without a trigger covering it.
    CbtConfig c = smallConfig();
    Cbt cbt(c);
    Rng rng(9);
    std::map<Row, std::uint64_t> actual;
    std::map<Row, std::uint64_t> at_refresh;
    RefreshAction action;
    for (std::uint64_t i = 0; i < 100000; ++i) {
        const Row row = rng.bernoulli(0.5)
                            ? Row{77}
                            : Row{static_cast<Row::rep>(
                                  rng.nextRange(1024))};
        ++actual[row];
        action.clear();
        cbt.onActivate(Cycle{i}, row, action);
        for (Row v : action.victimRows)
            at_refresh[v] = actual[v];
        const std::uint64_t base =
            at_refresh.count(row) ? at_refresh[row] : 0;
        ASSERT_LE(actual[row] - base, c.finalThreshold())
            << "row " << row << " step " << i;
    }
}

TEST(Cbt, CountersPersistAcrossWindows)
{
    // CBT never learns the auto-refresh rotation, so its counters
    // persist; the trigger refresh is what resets a count (and it is
    // safe to do so, because the trigger just refreshed every victim
    // the counter covers).
    CbtConfig c = smallConfig();
    Cbt cbt(c);
    RefreshAction action;
    for (std::uint64_t i = 0; i < 600; ++i)
        cbt.onActivate(Cycle{i}, Row{100}, action);
    const unsigned counters = cbt.allocatedCounters();
    EXPECT_GT(counters, 1u);
    cbt.onActivate(c.timing.cREFW() + Cycle{1}, Row{100}, action);
    EXPECT_EQ(cbt.allocatedCounters(), counters);
}

TEST(Cbt, BenignTrafficEventuallyBursts)
{
    // Even a spread access pattern walks some counter to the final
    // threshold once enough ACTs accrue — CBT's chronic burstiness.
    CbtConfig c = smallConfig();
    Cbt cbt(c);
    Rng rng(11);
    RefreshAction action;
    std::uint64_t triggers = 0;
    for (std::uint64_t i = 0; i < 30000; ++i) {
        action.clear();
        cbt.onActivate(Cycle{i},
                       Row{static_cast<Row::rep>(rng.nextRange(1024))},
                       action);
        triggers += !action.empty();
    }
    EXPECT_GT(triggers, 0u);
}

TEST(Cbt, NonContiguousModeDoublesRefreshCost)
{
    // Contiguous mode refreshes length + 2 rows per trigger;
    // remap-safe mode issues one NRR per covered row (2 rows each).
    CbtConfig contiguous = smallConfig();
    CbtConfig remapped = smallConfig();
    remapped.assumeContiguous = false;

    auto count_rows = [](const CbtConfig &config) {
        Cbt cbt(config);
        RefreshAction action;
        for (std::uint64_t i = 0; i < 2000; ++i)
            cbt.onActivate(Cycle{i}, Row{100}, action);
        return action.victimRows.size() +
               2 * action.nrrAggressors.size();
    };
    const auto base = count_rows(contiguous);
    const auto doubled = count_rows(remapped);
    EXPECT_GT(doubled, base + base / 2);
}

TEST(Cbt, WarmStartUsesFullBudgetWithBoundedPhases)
{
    CbtConfig c = smallConfig();
    c.warmStart = true;
    Cbt cbt(c);
    EXPECT_EQ(cbt.allocatedCounters(), c.numCounters);
    // Warm phases sit strictly below the trigger, so the very first
    // ACT cannot cause more than one trigger.
    RefreshAction action;
    cbt.onActivate(Cycle{0}, Row{100}, action);
    EXPECT_LE(cbt.lastBurstRows(),
              c.rowsPerBank / (1u << 3) + 2);
}

/**
 * The warm-start pre-split as a linear scan per split: always divide
 * the widest splittable range, the first in row order among equals.
 * The differential reference for Cbt's heap-ordered pre-split. Yields
 * (start, length, level) per range in row order.
 */
std::vector<std::tuple<std::uint32_t, std::uint64_t, unsigned>>
referenceWarmTree(const CbtConfig &c)
{
    struct Range
    {
        std::uint64_t length;
        unsigned level;
    };
    std::map<std::uint32_t, Range> ranges{{0, {c.rowsPerBank, 0}}};
    while (ranges.size() < c.numCounters) {
        auto widest = ranges.end();
        for (auto it = ranges.begin(); it != ranges.end(); ++it) {
            if (it->second.level >= c.levels || it->second.length <= 1)
                continue;
            if (widest == ranges.end() ||
                it->second.length > widest->second.length)
                widest = it;
        }
        if (widest == ranges.end())
            break;
        const auto [start, parent] = *widest;
        const std::uint64_t half = parent.length / 2;
        ranges.erase(widest);
        ranges.emplace(start, Range{half, parent.level + 1});
        ranges.emplace(start + static_cast<std::uint32_t>(half),
                       Range{parent.length - half, parent.level + 1});
    }
    std::vector<std::tuple<std::uint32_t, std::uint64_t, unsigned>> out;
    for (const auto &[start, r] : ranges)
        out.emplace_back(start, r.length, r.level);
    return out;
}

TEST(Cbt, WarmStartTreeMatchesWidestFirstScan)
{
    for (const std::uint64_t rows : {65536ULL, 1000ULL, 7ULL}) {
        for (const unsigned counters : {2u, 37u, 128u, 1000u}) {
            for (const unsigned levels : {3u, 10u}) {
                CbtConfig c;
                c.rowsPerBank = rows;
                c.numCounters = counters;
                c.levels = levels;
                c.warmStart = true;
                const auto expect = referenceWarmTree(c);

                ckpt::Writer w;
                Cbt(c).saveState(w);
                ckpt::Reader r(w.data());
                r.u64(); // ProtectionScheme's victim-refresh count
                ASSERT_EQ(r.u64(), expect.size());
                std::uint64_t state = c.warmStartSeed;
                for (const auto &[start, length, level] : expect) {
                    SCOPED_TRACE(::testing::Message()
                                 << rows << " rows, " << counters
                                 << " counters, " << levels
                                 << " levels, range at " << start);
                    EXPECT_EQ(r.u32(), start);
                    EXPECT_EQ(r.u32(), start);
                    EXPECT_EQ(r.u64(), length);
                    EXPECT_EQ(r.u32(), level);
                    // The per-range phase is keyed by order and start.
                    state += 0x9e3779b97f4a7c15ULL;
                    std::uint64_t z = state ^ start;
                    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
                    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
                    EXPECT_EQ(r.u64(), (z ^ (z >> 31)) % c.finalThreshold());
                }
                ASSERT_FALSE(r.failed());
            }
        }
    }
}

TEST(Cbt, WarmStartTriggersUnderSpreadTrafficQuickly)
{
    // The steady-state point of warm start: benign spread traffic
    // produces bursts within a fraction of a window rather than
    // after several windows of warm-up.
    CbtConfig c = smallConfig();
    c.warmStart = true;
    Cbt cbt(c);
    Rng rng(5);
    RefreshAction action;
    std::uint64_t victims = 0;
    for (std::uint64_t i = 0; i < 10000; ++i) {
        action.clear();
        cbt.onActivate(Cycle{i},
                       Row{static_cast<Row::rep>(rng.nextRange(1024))},
                       action);
        victims += action.victimRows.size();
    }
    EXPECT_GT(victims, 0u);
}

TEST(Cbt, AdaptiveReclaimDeepensHotRegionWhenSaturated)
{
    // Exhaust the counter budget with warm start, then hammer one
    // row: the adaptive tree must merge cold pairs and zoom into the
    // hot row, shrinking the burst to the deepest range size.
    CbtConfig c = smallConfig(); // 8 counters, 3 levels, 1024 rows
    c.warmStart = true;          // all 8 counters allocated
    c.adaptive = true;
    Cbt cbt(c);
    RefreshAction action;
    std::uint64_t last_burst = 0;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        action.clear();
        cbt.onActivate(Cycle{i}, Row{300}, action);
        if (!action.empty())
            last_burst = cbt.lastBurstRows();
    }
    ASSERT_GT(last_burst, 0u);
    // Deepest level 3 over 1024 rows = 128-row ranges (+2 edges).
    EXPECT_EQ(last_burst, 130u);
}

TEST(Cbt, NonAdaptiveSaturatedTreeBurstsWide)
{
    // The CAL 2017 ablation: without reclamation a saturated tree
    // cannot deepen and the hot row's burst stays at the stuck
    // range's width.
    CbtConfig c = smallConfig();
    c.warmStart = true;
    c.adaptive = false;
    Cbt cbt(c);
    RefreshAction action;
    std::uint64_t last_burst = 0;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        action.clear();
        cbt.onActivate(Cycle{i}, Row{300}, action);
        if (!action.empty())
            last_burst = cbt.lastBurstRows();
    }
    ASSERT_GT(last_burst, 0u);
    // Warm start balanced the 8 counters at 128-row ranges already
    // (1024 / 8); with deeper levels configured it would stay wide.
    EXPECT_GE(last_burst, 130u);
}

TEST(Cbt, MergedParentKeepsUpperBound)
{
    // After merge + resplit churn, no row may exceed the final
    // threshold without a covering refresh (the property that makes
    // max-of-children a safe merge rule).
    CbtConfig c = smallConfig();
    c.numCounters = 4;
    c.adaptive = true;
    Cbt cbt(c);
    Rng rng(17);
    std::map<Row, std::uint64_t> actual, at_refresh;
    RefreshAction action;
    for (std::uint64_t i = 0; i < 200000; ++i) {
        // Alternate hot regions to force merge/split churn.
        const Row hot{(i / 20000) % 2 ? 100u : 900u};
        const Row row = rng.bernoulli(0.6)
                            ? hot
                            : Row{static_cast<Row::rep>(
                                  rng.nextRange(1024))};
        ++actual[row];
        action.clear();
        cbt.onActivate(Cycle{i}, row, action);
        for (Row v : action.victimRows)
            at_refresh[v] = actual[v];
        const std::uint64_t base =
            at_refresh.count(row) ? at_refresh[row] : 0;
        ASSERT_LE(actual[row] - base, c.finalThreshold())
            << "row " << row << " step " << i;
    }
}

TEST(Cbt, CostMatchesBitFormula)
{
    CbtConfig c;
    c.numCounters = 128;
    c.rowHammerThreshold = 50000;
    c.rowsPerBank = 65536;
    Cbt cbt(c);
    const TableCost cost = cbt.cost();
    EXPECT_EQ(cost.entries, 128u);
    // 16 prefix + 14 count bits = 30 per counter: 3,840 bits, within
    // 1% of the paper's reported 3,824 (Table IV).
    EXPECT_EQ(cost.sramBits, 128u * 30u);
    EXPECT_EQ(cost.camBits, 0u);
    EXPECT_NEAR(static_cast<double>(cost.sramBits), 3824.0, 40.0);
}

} // namespace
} // namespace schemes
} // namespace graphene
