/**
 * @file
 * Tests for the trace-driven full system and the experiment grid.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/system.hh"

namespace graphene {
namespace sim {
namespace {

SystemConfig
smallSystem(schemes::SchemeKind kind)
{
    SystemConfig c;
    c.scheme.kind = kind;
    c.windows = 0.02; // ~1.3 ms simulated
    c.numCores = 4;
    return c;
}

workloads::WorkloadSpec
smallWorkload(const std::string &app = "lbm")
{
    return workloads::homogeneous(app, 4);
}

TEST(System, AllCoresMakeProgress)
{
    const SystemResult r =
        runSystem(smallSystem(schemes::SchemeKind::None),
                  smallWorkload());
    ASSERT_EQ(r.coreRequests.size(), 4u);
    for (auto reqs : r.coreRequests)
        EXPECT_GT(reqs, 1000u);
    EXPECT_GT(r.acts, 0u);
    EXPECT_GT(r.requests, r.acts); // some row hits
}

TEST(System, DeterministicAcrossRuns)
{
    const SystemConfig c = smallSystem(schemes::SchemeKind::Graphene);
    const SystemResult a = runSystem(c, smallWorkload());
    const SystemResult b = runSystem(c, smallWorkload());
    EXPECT_EQ(a.coreRequests, b.coreRequests);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_EQ(a.victimRowsRefreshed, b.victimRowsRefreshed);
}

TEST(System, GrapheneSilentOnNormalWorkloads)
{
    // The paper's central claim: zero victim refreshes, hence zero
    // energy and performance overhead, on realistic traffic.
    const SystemResult r =
        runSystem(smallSystem(schemes::SchemeKind::Graphene),
                  smallWorkload());
    EXPECT_EQ(r.victimRowsRefreshed, 0u);
    EXPECT_EQ(r.refreshEnergyOverhead, 0.0);
    EXPECT_EQ(r.bitFlips, 0u);
}

TEST(System, TwiCeSilentOnNormalWorkloads)
{
    const SystemResult r =
        runSystem(smallSystem(schemes::SchemeKind::TwiCe),
                  smallWorkload());
    EXPECT_EQ(r.victimRowsRefreshed, 0u);
}

TEST(System, ParaPaysOnEveryWorkload)
{
    const SystemResult r =
        runSystem(smallSystem(schemes::SchemeKind::Para),
                  smallWorkload());
    EXPECT_GT(r.victimRowsRefreshed, 0u);
    EXPECT_GT(r.refreshEnergyOverhead, 0.0);
}

TEST(System, GrapheneMatchesBaselinePerformance)
{
    const SystemResult baseline =
        runSystem(smallSystem(schemes::SchemeKind::None),
                  smallWorkload());
    const SystemResult graphene =
        runSystem(smallSystem(schemes::SchemeKind::Graphene),
                  smallWorkload());
    // No victim refreshes -> identical scheduling -> ~zero loss.
    EXPECT_NEAR(graphene.speedupLossVs(baseline), 0.0, 0.001);
}

TEST(System, RowHitRateReflectsWorkloadLocality)
{
    const SystemResult streaming =
        runSystem(smallSystem(schemes::SchemeKind::None),
                  smallWorkload("lbm"));
    const SystemResult random =
        runSystem(smallSystem(schemes::SchemeKind::None),
                  smallWorkload("mcf"));
    EXPECT_GT(streaming.rowHitRate, random.rowHitRate);
}

TEST(System, UndersizedWorkloadIsFatal)
{
    EXPECT_DEATH(runSystem(smallSystem(schemes::SchemeKind::None),
                           workloads::homogeneous("lbm", 2)),
                 "supplies");
}

TEST(Experiment, OverheadGridShape)
{
    const std::vector<workloads::WorkloadSpec> suite = {
        smallWorkload("lbm"), smallWorkload("mcf")};
    const std::vector<schemes::SchemeKind> kinds = {
        schemes::SchemeKind::Graphene, schemes::SchemeKind::Para};
    exp::Runner runner;
    const auto rows = runOverheadGrid(
        smallSystem(schemes::SchemeKind::None), suite, kinds, runner);
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].workload, "lbm");
    EXPECT_EQ(rows[0].scheme, "Graphene");
    EXPECT_EQ(rows[3].scheme, "PARA");
    for (const auto &row : rows)
        EXPECT_EQ(row.bitFlips, 0u);
}

TEST(Experiment, AdversarialGridShape)
{
    ActEngineConfig base;
    base.rowsPerBank = 8192;
    base.scheme.rowsPerBank = 8192;
    base.windows = 0.05;
    exp::Runner runner;
    const auto rows = runAdversarialGrid(
        base, {schemes::SchemeKind::Graphene}, 3, runner);
    ASSERT_EQ(rows.size(), 6u); // S1 x2, S2 x2, S3, S4
    for (const auto &row : rows) {
        EXPECT_EQ(row.scheme, "Graphene");
        EXPECT_EQ(row.bitFlips, 0u);
    }
}

TEST(System, ValidateCollectsEveryViolation)
{
    SystemConfig config;
    config.numCores = 0;
    config.windows = 0.0;
    config.scheme.blastRadius = 0;

    const Result<void> result = config.validate();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), ErrorCode::Config);
    // One pass reports all three broken rules, not just the first.
    ASSERT_GE(result.error().notes().size(), 3u);
    const std::string report = result.error().describe();
    EXPECT_NE(report.find("core"), std::string::npos);
    EXPECT_NE(report.find("refresh windows"), std::string::npos);
    EXPECT_NE(report.find("scheme spec"), std::string::npos);
}

TEST(System, DefaultConfigValidates)
{
    EXPECT_TRUE(SystemConfig().validate().ok());
    EXPECT_TRUE(ActEngineConfig().validate().ok());
}

TEST(ActEngine, ValidateCollectsEveryViolation)
{
    ActEngineConfig config;
    config.actRate = 0.0;
    config.windows = -1.0;
    config.rowsPerBank = 0;
    const Result<void> result = config.validate();
    ASSERT_FALSE(result.ok());
    EXPECT_GE(result.error().notes().size(), 3u);
}

TEST(Experiment, InvalidBaselineSkipsCellsInsteadOfAborting)
{
    SystemConfig base = smallSystem(schemes::SchemeKind::None);
    base.scheme.blastRadius = 0; // poisons every derived cell spec
    const std::vector<workloads::WorkloadSpec> suite = {
        smallWorkload("lbm"), smallWorkload("mcf")};
    const std::vector<schemes::SchemeKind> kinds = {
        schemes::SchemeKind::Graphene, schemes::SchemeKind::Para};

    exp::Runner runner;
    const auto rows = runOverheadGrid(base, suite, kinds, runner);
    ASSERT_EQ(rows.size(), 4u); // the grid keeps its shape
    for (const auto &row : rows) {
        EXPECT_TRUE(row.skipped());
        EXPECT_NE(row.error.find("blast radius"), std::string::npos);
        EXPECT_EQ(row.victimRows, 0u);
    }
}

TEST(Experiment, ValidGridRowsCarryNoError)
{
    exp::Runner runner;
    const auto rows = runOverheadGrid(
        smallSystem(schemes::SchemeKind::None),
        {smallWorkload("lbm")}, {schemes::SchemeKind::Graphene}, runner);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_FALSE(rows[0].skipped());
    EXPECT_TRUE(rows[0].error.empty());
}

TEST(Experiment, AdversarialGridSkipsInvalidKind)
{
    ActEngineConfig base;
    base.rowsPerBank = 8192;
    base.scheme.rowsPerBank = 8192;
    base.scheme.rowHammerThreshold = 0; // invalid for any scheme
    base.windows = 0.05;
    exp::Runner runner;
    const auto rows = runAdversarialGrid(
        base, {schemes::SchemeKind::Graphene}, 3, runner);
    ASSERT_EQ(rows.size(), 6u); // same shape as the valid grid
    for (const auto &row : rows) {
        EXPECT_TRUE(row.skipped());
        EXPECT_NE(row.error.find("threshold"), std::string::npos);
    }
}

} // namespace
} // namespace sim
} // namespace graphene
