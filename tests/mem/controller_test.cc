/**
 * @file
 * Tests for the channel controller: row-buffer behaviour, refresh
 * cadence, scheme wiring, and victim-refresh overhead accounting.
 */

#include <gtest/gtest.h>

#include "mem/controller.hh"

namespace graphene {
namespace mem {
namespace {

ControllerConfig
baseConfig(schemes::SchemeKind kind = schemes::SchemeKind::None)
{
    ControllerConfig c;
    c.scheme.kind = kind;
    c.fault.rowHammerThreshold = 1e12;
    return c;
}

TEST(Controller, FirstAccessActivates)
{
    ChannelController ctrl(baseConfig());
    const ServiceResult r =
        ctrl.access(Cycle{0}, 0, Row{100}, false);
    EXPECT_TRUE(r.didAct);
    EXPECT_FALSE(r.rowHit);
    EXPECT_GT(r.completion.value(), 0u);
    EXPECT_EQ(ctrl.actCount(), ActCount{1});
}

TEST(Controller, SameRowHitsUntilPageLimit)
{
    ControllerConfig config = baseConfig();
    config.pageHitLimit = 4;
    ChannelController ctrl(config);
    Cycle t{};
    ServiceResult r = ctrl.access(t, 0, Row{100}, false);
    unsigned hits = 0;
    for (int i = 0; i < 4; ++i) {
        r = ctrl.access(r.completion, 0, Row{100}, false);
        hits += r.rowHit;
    }
    EXPECT_EQ(hits, 4u);
    // The 5th same-row access exceeds the limit: page closed and
    // re-opened (minimalist-open).
    r = ctrl.access(r.completion, 0, Row{100}, false);
    EXPECT_TRUE(r.didAct);
}

TEST(Controller, DifferentRowConflictReactivates)
{
    ChannelController ctrl(baseConfig());
    ServiceResult a = ctrl.access(Cycle{0}, 0, Row{100}, false);
    ServiceResult b =
        ctrl.access(a.completion, 0, Row{200}, false);
    EXPECT_TRUE(b.didAct);
    EXPECT_FALSE(b.rowHit);
    EXPECT_EQ(ctrl.actCount(), ActCount{2});
}

TEST(Controller, BanksAreIndependent)
{
    ChannelController ctrl(baseConfig());
    ctrl.access(Cycle{0}, 0, Row{100}, false);
    const ServiceResult r =
        ctrl.access(Cycle{0}, 1, Row{100}, false);
    EXPECT_TRUE(r.didAct);
    // Bank 1's ACT does not wait for bank 0 beyond the shared bus.
    EXPECT_LT(r.completion.value(), 200u);
}

TEST(Controller, RefreshCadenceMatchesTrefi)
{
    ControllerConfig config = baseConfig();
    ChannelController ctrl(config);
    const Cycle span = config.timing.inCycles().cREFI * 10 + Cycle{5};
    ctrl.catchUpRefresh(span);
    EXPECT_EQ(ctrl.rank().refreshCount(), 10u);
}

TEST(Controller, GrapheneSchemeIsWiredPerBank)
{
    ControllerConfig config = baseConfig(schemes::SchemeKind::Graphene);
    ChannelController ctrl(config);
    for (unsigned b = 0; b < config.banksPerRank; ++b) {
        ASSERT_NE(ctrl.scheme(b), nullptr);
        EXPECT_EQ(ctrl.scheme(b)->name(), "Graphene");
    }
    EXPECT_EQ(ctrl.scheme(0), ctrl.scheme(0));
    EXPECT_NE(ctrl.scheme(0), ctrl.scheme(1));
}

TEST(Controller, NoneSchemeMeansNullPerBank)
{
    ChannelController ctrl(baseConfig());
    EXPECT_EQ(ctrl.scheme(0), nullptr);
}

TEST(Controller, HammeringTriggersVictimRefreshes)
{
    ControllerConfig config = baseConfig(schemes::SchemeKind::Graphene);
    config.scheme.rowHammerThreshold = 2000; // T = 333 at k=2
    ChannelController ctrl(config);
    Cycle t{};
    for (int i = 0; i < 2000; ++i) {
        // Alternate rows to defeat the open-page hit path and force
        // an ACT per access.
        const Row row{i % 2 ? 100u : 200u};
        const ServiceResult r = ctrl.access(t, 0, row, false);
        t = r.completion;
    }
    EXPECT_GT(ctrl.victimRowsRefreshed(), 0u);
}

TEST(Controller, VictimRefreshDelaysSubsequentAccesses)
{
    ControllerConfig config = baseConfig(schemes::SchemeKind::Graphene);
    config.scheme.rowHammerThreshold = 2000;
    ChannelController ctrl(config);

    Cycle t{};
    Cycle max_gap{};
    Cycle prev_completion{};
    for (int i = 0; i < 2000; ++i) {
        const Row row{i % 2 ? 100u : 200u};
        const ServiceResult r = ctrl.access(t, 0, row, false);
        if (prev_completion != Cycle{})
            max_gap = std::max(max_gap,
                               r.completion - prev_completion);
        prev_completion = r.completion;
        t = r.completion;
    }
    // At least one access was stalled behind a 2-row NRR (2 x tRC).
    EXPECT_GE(max_gap, config.timing.inCycles().cRC * 2);
}

TEST(Controller, DebtDoesNotLeakAcrossBanks)
{
    ControllerConfig config = baseConfig(schemes::SchemeKind::Cbt);
    config.scheme.rowHammerThreshold = 2000;
    ChannelController ctrl(config);
    // Hammer bank 0 until bursts occur.
    Cycle t{};
    for (int i = 0; i < 4000; ++i)
        t = ctrl.access(t, 0, Row{i % 2 ? 100u : 5000u}, false)
                .completion;
    ASSERT_GT(ctrl.victimRowsRefreshed(), 0u);
    // Bank 1 is untouched: its first access completes with cold-start
    // latency, not burdened by bank 0's refresh debt.
    const ServiceResult r = ctrl.access(t, 1, Row{100}, false);
    const dram::CycleTiming c = config.timing.inCycles();
    EXPECT_LE(r.completion - t, c.cRC + c.cRCD + c.cCL + c.cBL + c.cRFC);
}

TEST(Controller, FawCapsMultiBankActRate)
{
    // Blast single-access row misses across all 16 banks as fast as
    // possible: the rank's four-activation window, not tRC, becomes
    // the limiter, so 16 ACTs take at least 3 x tFAW.
    ControllerConfig config = baseConfig();
    ChannelController ctrl(config);
    Cycle last_completion{};
    for (unsigned b = 0; b < 16; ++b) {
        const ServiceResult r =
            ctrl.access(Cycle{0}, b, Row{100}, false);
        last_completion = std::max(last_completion, r.completion);
    }
    const dram::CycleTiming c = config.timing.inCycles();
    EXPECT_GE(last_completion, c.cFAW * 3 + c.cRCD + c.cCL + c.cBL);
}

TEST(Controller, RowHitRateTracksAccessPattern)
{
    ControllerConfig config = baseConfig();
    config.pageHitLimit = 1000;
    ChannelController ctrl(config);
    Cycle t{};
    for (int i = 0; i < 100; ++i) {
        const ServiceResult r = ctrl.access(t, 0, Row{100}, false);
        t = r.completion;
    }
    EXPECT_GT(ctrl.rowHitRate(), 0.9);
    EXPECT_EQ(ctrl.requestCount(), 100u);
}

} // namespace
} // namespace mem
} // namespace graphene
