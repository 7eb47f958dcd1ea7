/**
 * @file
 * Tests for the synthetic trace generators and application profiles.
 */

#include <gtest/gtest.h>

#include <set>

#include "workloads/profiles.hh"
#include "workloads/synthetic.hh"

namespace graphene {
namespace workloads {
namespace {

TEST(Synthetic, AddressesDecodeInRange)
{
    dram::Geometry g;
    dram::AddressMapper mapper(g);
    SyntheticParams p;
    SyntheticGenerator gen(p, mapper, 0, 1);
    for (int i = 0; i < 10000; ++i) {
        const CoreAccess a = gen.next();
        const dram::DecodedAddr d = mapper.decode(a.addr);
        EXPECT_LT(d.row.value(), g.rowsPerBank);
        EXPECT_LT(d.channel, g.channels);
    }
}

TEST(Synthetic, SequentialFractionControlsRowLocality)
{
    dram::Geometry g;
    dram::AddressMapper mapper(g);
    auto repeat_rate = [&](double seq) {
        SyntheticParams p;
        p.sequentialFraction = seq;
        SyntheticGenerator gen(p, mapper, 0, 1);
        Row prev = Row::invalid();
        int same = 0;
        for (int i = 0; i < 20000; ++i) {
            const dram::DecodedAddr d = mapper.decode(gen.next().addr);
            same += d.row == prev;
            prev = d.row;
        }
        return same / 20000.0;
    };
    EXPECT_GT(repeat_rate(0.95), repeat_rate(0.1) + 0.3);
}

TEST(Synthetic, MeanGapControlsIntensity)
{
    dram::Geometry g;
    dram::AddressMapper mapper(g);
    SyntheticParams p;
    p.meanGapCycles = 300.0;
    SyntheticGenerator gen(p, mapper, 0, 1);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(gen.next().gap.value());
    EXPECT_NEAR(sum / n, 300.0, 10.0);
}

TEST(Synthetic, WriteFractionHonoured)
{
    dram::Geometry g;
    dram::AddressMapper mapper(g);
    SyntheticParams p;
    p.writeFraction = 0.4;
    SyntheticGenerator gen(p, mapper, 0, 1);
    int writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        writes += gen.next().isWrite;
    EXPECT_NEAR(writes / static_cast<double>(n), 0.4, 0.02);
}

TEST(Synthetic, CoresUseDistinctWorkingSets)
{
    dram::Geometry g;
    dram::AddressMapper mapper(g);
    SyntheticParams p;
    p.workingSetRows = 64;
    p.sequentialFraction = 0.0;
    SyntheticGenerator g0(p, mapper, 0, 1);
    SyntheticGenerator g1(p, mapper, 5, 1);
    std::set<Row> rows0, rows1;
    for (int i = 0; i < 2000; ++i) {
        rows0.insert(mapper.decode(g0.next().addr).row);
        rows1.insert(mapper.decode(g1.next().addr).row);
    }
    std::set<Row> overlap;
    for (Row r : rows0)
        if (rows1.count(r))
            overlap.insert(r);
    EXPECT_TRUE(overlap.empty());
}

// The working-set checks run before the Zipf sampler or the working-set
// divisor is built from the parameters, so each reports its own
// message rather than a failure from inside either.
TEST(Synthetic, EmptyWorkingSetIsRejectedFirst)
{
    const dram::AddressMapper mapper{dram::Geometry{}};
    SyntheticParams p;
    p.workingSetRows = 0;
    EXPECT_DEATH(SyntheticGenerator(p, mapper, 0, 1), "empty working set");
}

TEST(Synthetic, OversizedWorkingSetIsRejectedFirst)
{
    const dram::AddressMapper mapper{dram::Geometry{}};
    SyntheticParams p;
    p.workingSetRows = mapper.geometry().rowsPerBank + 1;
    EXPECT_DEATH(SyntheticGenerator(p, mapper, 0, 1), "exceeds bank rows");
}

TEST(Profiles, AllNamedAppsResolve)
{
    for (const auto &app : specHighApps())
        EXPECT_EQ(appProfile(app).value().name, app);
    for (const auto &app : multiThreadedApps())
        EXPECT_EQ(appProfile(app).value().name, app);
}

TEST(Profiles, UnknownAppIsTypedError)
{
    const auto result = appProfile("notanapp");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), ErrorCode::NotFound);
    EXPECT_NE(result.error().message().find("unknown application"),
              std::string::npos)
        << result.error().message();
    EXPECT_NE(result.error().message().find("notanapp"),
              std::string::npos)
        << result.error().message();
}

TEST(Profiles, StreamingAppsAreSequentialAndIntense)
{
    const SyntheticParams lbm = appProfile("lbm").value();
    const SyntheticParams mcf = appProfile("mcf").value();
    EXPECT_GT(lbm.sequentialFraction, mcf.sequentialFraction);
    EXPECT_LT(lbm.meanGapCycles,
              appProfile("povray").value().meanGapCycles);
}

TEST(Profiles, HomogeneousReplicates)
{
    const WorkloadSpec w = homogeneous("mcf", 16);
    EXPECT_EQ(w.name, "mcf");
    ASSERT_EQ(w.coreParams.size(), 16u);
    for (const auto &p : w.coreParams)
        EXPECT_EQ(p.name, "mcf");
}

TEST(Profiles, MixHighDrawsOnlyFromSpecHigh)
{
    const WorkloadSpec w = mixHigh(16, 1);
    const auto apps = specHighApps();
    for (const auto &p : w.coreParams) {
        bool found = false;
        for (const auto &a : apps)
            found |= a == p.name;
        EXPECT_TRUE(found) << p.name;
    }
}

TEST(Profiles, MixBlendExcludesMultiThreaded)
{
    const WorkloadSpec w = mixBlend(16, 2);
    for (const auto &p : w.coreParams)
        for (const auto &mt : multiThreadedApps())
            EXPECT_NE(p.name, mt);
}

TEST(Profiles, NormalSuiteHasSixteenWorkloads)
{
    const auto suite = normalWorkloads(16);
    EXPECT_EQ(suite.size(), 9u + 2u + 5u);
    for (const auto &w : suite)
        EXPECT_EQ(w.coreParams.size(), 16u);
}

} // namespace
} // namespace workloads
} // namespace graphene
