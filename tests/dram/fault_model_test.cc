/**
 * @file
 * Tests for the Row Hammer charge-disturbance fault model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "ckpt/io.hh"
#include "dram/fault_model.hh"

namespace graphene {
namespace dram {
namespace {

FaultConfig
smallConfig(double threshold = 100.0, unsigned radius = 1)
{
    FaultConfig c;
    c.rowHammerThreshold = threshold;
    c.mu.assign(radius, 0.0);
    for (unsigned i = 1; i <= radius; ++i)
        c.mu[i - 1] = 1.0 / (static_cast<double>(i) * i);
    return c;
}

TEST(FaultModel, AdjacentDisturbanceAccumulates)
{
    FaultModel f(smallConfig(), 1000);
    for (std::uint64_t i = 0; i < 10; ++i)
        f.onActivate(Cycle{i}, Row{500});
    EXPECT_DOUBLE_EQ(f.disturbance(Row{499}), 10.0);
    EXPECT_DOUBLE_EQ(f.disturbance(Row{501}), 10.0);
    EXPECT_DOUBLE_EQ(f.disturbance(Row{502}), 0.0);
}

TEST(FaultModel, FlipAtThreshold)
{
    FaultModel f(smallConfig(100.0), 1000);
    for (std::uint64_t i = 0; i < 99; ++i)
        f.onActivate(Cycle{i}, Row{500});
    EXPECT_TRUE(f.flips().empty());
    f.onActivate(Cycle{99}, Row{500});
    ASSERT_EQ(f.flips().size(), 2u); // both neighbours flip
    EXPECT_EQ(f.flips()[0].victimRow, Row{499});
    EXPECT_EQ(f.flips()[1].victimRow, Row{501});
    EXPECT_EQ(f.flips()[0].cycle, Cycle{99});
}

TEST(FaultModel, RefreshResetsDisturbance)
{
    FaultModel f(smallConfig(100.0), 1000);
    for (std::uint64_t i = 0; i < 60; ++i)
        f.onActivate(Cycle{i}, Row{500});
    f.onRowRefresh(Row{499});
    for (std::uint64_t i = 0; i < 60; ++i)
        f.onActivate(Cycle{100 + i}, Row{500});
    // 499 was refreshed at 60 and saw only 60 more: no flip there.
    // 501 accumulated 120 >= 100: flipped.
    ASSERT_EQ(f.flips().size(), 1u);
    EXPECT_EQ(f.flips()[0].victimRow, Row{501});
}

TEST(FaultModel, DoubleSidedHalvesTheBudget)
{
    FaultModel f(smallConfig(100.0), 1000);
    // Alternating aggressors around row 500: each deposits 1 per ACT.
    for (std::uint64_t i = 0; i < 50; ++i) {
        f.onActivate(Cycle{2 * i}, Row{499});
        f.onActivate(Cycle{2 * i + 1}, Row{501});
    }
    // Row 500 received 100 units from 50 ACTs per side.
    bool flipped_500 = false;
    for (const auto &flip : f.flips())
        flipped_500 |= flip.victimRow == Row{500};
    EXPECT_TRUE(flipped_500);
}

TEST(FaultModel, NonAdjacentWeights)
{
    FaultModel f(smallConfig(100.0, 3), 1000);
    f.onActivate(Cycle{0}, Row{500});
    EXPECT_DOUBLE_EQ(f.disturbance(Row{499}), 1.0);
    EXPECT_DOUBLE_EQ(f.disturbance(Row{498}), 0.25);
    EXPECT_NEAR(f.disturbance(Row{497}), 1.0 / 9.0, 1e-12);
    EXPECT_DOUBLE_EQ(f.disturbance(Row{496}), 0.0);
}

TEST(FaultModel, EdgeRowsClip)
{
    FaultModel f(smallConfig(100.0, 2), 1000);
    f.onActivate(Cycle{0}, Row{0});
    EXPECT_DOUBLE_EQ(f.disturbance(Row{1}), 1.0);
    EXPECT_DOUBLE_EQ(f.disturbance(Row{2}), 0.25);
    f.onActivate(Cycle{1}, Row{999});
    EXPECT_DOUBLE_EQ(f.disturbance(Row{998}), 1.0);
}

TEST(FaultModel, RemapPermutationIsABijection)
{
    FaultConfig c = smallConfig();
    c.remap = true;
    FaultModel f(c, 1024);
    std::vector<bool> seen(1024, false);
    for (Row r{}; r.value() < 1024; ++r) {
        const auto n = f.physicalNeighbors(r, 1);
        for (Row v : n) {
            ASSERT_LT(v.value(), 1024u);
            // Every row has at most two distance-1 physical
            // neighbours; collect coverage via left neighbours.
        }
        (void)seen;
    }
    // Disturbance still lands somewhere and nowhere "logical".
    f.onActivate(Cycle{0}, Row{500});
    double total = 0.0;
    int disturbed = 0;
    for (Row r{}; r.value() < 1024; ++r) {
        total += f.disturbance(r);
        disturbed += f.disturbance(r) > 0;
    }
    EXPECT_EQ(disturbed, 2);
    EXPECT_DOUBLE_EQ(total, 2.0);
}

TEST(FaultModel, RemapBreaksLogicalAdjacency)
{
    FaultConfig c = smallConfig();
    c.remap = true;
    FaultModel f(c, 65536);
    // With a random permutation over 64K rows, the chance that a
    // logical neighbour is also a physical neighbour is negligible.
    f.onActivate(Cycle{0}, Row{500});
    EXPECT_DOUBLE_EQ(f.disturbance(Row{499}), 0.0);
    EXPECT_DOUBLE_EQ(f.disturbance(Row{501}), 0.0);
}

TEST(FaultModel, PhysicalNeighborsMatchDepositTargets)
{
    FaultConfig c = smallConfig(100.0, 2);
    c.remap = true;
    FaultModel f(c, 4096);
    const auto victims = f.physicalNeighbors(Row{1000}, 2);
    ASSERT_EQ(victims.size(), 4u);
    f.onActivate(Cycle{0}, Row{1000});
    for (Row v : victims)
        EXPECT_GT(f.disturbance(v), 0.0) << "victim " << v;
}

TEST(FaultModel, RemapIsDeterministicPerSeed)
{
    FaultConfig c = smallConfig();
    c.remap = true;
    FaultModel a(c, 4096), b(c, 4096);
    EXPECT_EQ(a.physicalNeighbors(Row{7}, 1), b.physicalNeighbors(Row{7}, 1));
    c.remapSeed = 999;
    FaultModel d(c, 4096);
    EXPECT_NE(a.physicalNeighbors(Row{7}, 1), d.physicalNeighbors(Row{7}, 1));
}

TEST(FaultModel, IdentityNeighborsWithoutRemap)
{
    FaultModel f(smallConfig(100.0, 2), 4096);
    const auto n = f.physicalNeighbors(Row{1000}, 2);
    EXPECT_EQ(n, (std::vector<Row>{Row{999}, Row{1001}, Row{998},
                                   Row{1002}}));
}

TEST(FaultModel, OneFlipRecordedPerExcursion)
{
    FaultModel f(smallConfig(10.0), 1000);
    for (std::uint64_t i = 0; i < 50; ++i)
        f.onActivate(Cycle{i}, Row{500});
    // Crossing once latches; no duplicate flip until refreshed.
    EXPECT_EQ(f.flips().size(), 2u);
    f.onRowRefresh(Row{499});
    for (std::uint64_t i = 0; i < 10; ++i)
        f.onActivate(Cycle{100 + i}, Row{500});
    EXPECT_EQ(f.flips().size(), 3u);
}

/**
 * Checkpoint bytes of one bank: @p cells as (row, charge) live rows,
 * none flipped, then a flip log of @p flip_rows and a zero peak.
 */
std::vector<std::uint8_t>
bankBytes(const std::vector<std::pair<std::uint32_t, double>> &cells,
          const std::vector<std::uint32_t> &flip_rows = {})
{
    ckpt::Writer w;
    w.u64(cells.size());
    for (const auto &[row, charge] : cells) {
        w.u32(row);
        w.f64(charge);
        w.boolean(false);
    }
    w.u64(flip_rows.size());
    for (std::uint32_t row : flip_rows) {
        w.u32(row);
        w.u64(7);
        w.f64(100.0);
    }
    w.f64(0.0);
    return w.data();
}

bool
restores(const FaultConfig &config, const std::vector<std::uint8_t> &bytes)
{
    FaultModel f(config, 1000);
    ckpt::Reader r(bytes);
    f.restoreState(r);
    return !r.failed();
}

TEST(FaultModel, UnitRestoreRejectsChargesACountCannotHold)
{
    // Unit weights hold a row's charge as a 31-bit ACT count.
    const FaultConfig unit = smallConfig();
    EXPECT_TRUE(restores(unit, bankBytes({{5, 0.0}, {6, 2147483647.0}})));
    for (double bad : {2.5, -1.0, 2147483648.0, 1e300,
                       std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()})
        EXPECT_FALSE(restores(unit, bankBytes({{5, bad}})))
            << "charge " << bad;
    // Any other weights keep a double: a fractional charge is legal.
    EXPECT_TRUE(restores(smallConfig(100.0, 2), bankBytes({{5, 2.5}})));
}

TEST(FaultModel, RestoreRejectsFlipRowsOutOfRange)
{
    for (unsigned radius : {1u, 2u}) {
        const FaultConfig c = smallConfig(100.0, radius);
        EXPECT_TRUE(restores(c, bankBytes({}, {999})))
            << "radius " << radius;
        EXPECT_FALSE(restores(c, bankBytes({}, {1000})))
            << "radius " << radius;
    }
}

TEST(FaultModelDeathTest, CountOverflowTripsCheck)
{
    FaultModel f(smallConfig(), 1000);
    const auto bytes = bankBytes({{500, 2147483647.0}});
    ckpt::Reader r(bytes);
    f.restoreState(r);
    ASSERT_FALSE(r.failed());
    EXPECT_EQ(f.disturbance(Row{500}), 2147483647.0);
    EXPECT_DEATH(f.onActivate(Cycle{0}, Row{501}), "overflows");
}

} // namespace
} // namespace dram
} // namespace graphene
