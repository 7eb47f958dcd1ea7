/**
 * @file
 * Differential test: the sparse-then-dense FaultModel against the
 * dense reference it replaced (reference_fault_model.hh).
 *
 * Both models run the same seeded random sequence of ACTs, REF
 * stripes, NRRs, victim-row refreshes and checkpoint round trips,
 * with blast radius 1, 2 and 3 and remapping off and on. Every few steps
 * they must agree on every row's disturbance, the flip log and the
 * peak; every checkpoint must be byte-identical. Unit weights run the
 * model's count cells, every other weight vector its charge cells. Each sequence starts
 * on a narrow row window (the bank stays sparse) and widens to the
 * whole bank (it switches to dense), and restores land both in the
 * running model and in a freshly constructed one.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ckpt/io.hh"
#include "common/random.hh"
#include "dram/fault_model.hh"
#include "reference_fault_model.hh"

namespace graphene {
namespace dram {
namespace {

struct DiffCase
{
    std::string name;
    std::vector<double> mu;
    bool remap;
};

std::ostream &
operator<<(std::ostream &os, const DiffCase &c)
{
    return os << c.name;
}

class FaultModelDiff : public ::testing::TestWithParam<DiffCase>
{
  protected:
    static constexpr std::uint64_t kRows = 4096;

    FaultConfig config() const
    {
        FaultConfig c;
        c.rowHammerThreshold = 40.0;
        c.mu = GetParam().mu;
        c.remap = GetParam().remap;
        return c;
    }

    void expectSame(const FaultModel &sut,
                    const reference::DenseFaultModel &ref,
                    std::uint64_t step) const
    {
        for (Row r{}; r.value() < kRows; ++r)
            ASSERT_EQ(sut.disturbance(r), ref.disturbance(r))
                << "row " << r << " at step " << step;
        ASSERT_EQ(sut.flips().size(), ref.flips().size())
            << "at step " << step;
        for (std::size_t i = 0; i < ref.flips().size(); ++i) {
            EXPECT_EQ(sut.flips()[i].victimRow, ref.flips()[i].victimRow);
            EXPECT_EQ(sut.flips()[i].cycle, ref.flips()[i].cycle);
            EXPECT_EQ(sut.flips()[i].disturbance,
                      ref.flips()[i].disturbance);
        }
        ASSERT_EQ(sut.peakDisturbance(), ref.peakDisturbance());
    }

    static std::vector<std::uint8_t> save(const FaultModel &m)
    {
        ckpt::Writer w;
        m.saveState(w);
        return w.data();
    }

    static std::vector<std::uint8_t>
    save(const reference::DenseFaultModel &m)
    {
        ckpt::Writer w;
        m.saveState(w);
        return w.data();
    }
};

TEST_P(FaultModelDiff, MatchesDenseReference)
{
    const FaultConfig fc = config();
    auto sut = std::make_unique<FaultModel>(fc, kRows);
    auto ref = std::make_unique<reference::DenseFaultModel>(fc, kRows);
    Rng rng(0x5eed ^ GetParam().mu.size() ^ (GetParam().remap << 4));

    const unsigned radius = static_cast<unsigned>(fc.mu.size());
    const std::uint64_t kSteps = 60000;
    std::uint64_t stripe = 0;
    bool saw_sparse = false;
    bool saw_dense = false;
    bool restored_dense_into_fresh = false;

    for (std::uint64_t step = 0; step < kSteps; ++step) {
        // First third: a 96-row window plus a hot pair (sparse, with
        // flips). Then the whole bank, which forces the dense switch.
        const std::uint64_t window = step < kSteps / 3 ? 96 : kRows;
        const std::uint64_t base = step < kSteps / 3 ? 1000 : 0;
        const Cycle cycle{step};
        const std::uint64_t op = rng.nextRange(1000);
        if (op < 900) {
            Row aggressor;
            const std::uint64_t pick = rng.nextRange(10);
            if (pick < 3)
                aggressor = Row{static_cast<Row::rep>(
                    base + 40 + 2 * rng.nextRange(2))};
            else if (pick == 3)
                aggressor = Row{static_cast<Row::rep>(
                    rng.nextRange(2) ? 0 : kRows - 1)};
            else
                aggressor = Row{static_cast<Row::rep>(
                    base + rng.nextRange(window))};
            sut->onActivate(cycle, aggressor);
            ref->onActivate(cycle, aggressor);
        } else if (op < 940) {
            // One REF stripe: eight consecutive rows, rotating.
            for (int i = 0; i < 8; ++i, stripe = (stripe + 1) % kRows) {
                sut->onRowRefresh(Row{static_cast<Row::rep>(stripe)});
                ref->onRowRefresh(Row{static_cast<Row::rep>(stripe)});
            }
        } else if (op < 975) {
            // NRR around a (often hot) aggressor.
            const Row aggressor{static_cast<Row::rep>(
                base + rng.nextRange(window))};
            const auto victims = sut->physicalNeighbors(aggressor, radius);
            ASSERT_EQ(victims, ref->physicalNeighbors(aggressor, radius));
            for (Row v : victims) {
                sut->onRowRefresh(v);
                ref->onRowRefresh(v);
            }
        } else if (op < 995) {
            // An explicit victim list, duplicates and misses included.
            const std::uint64_t n = 1 + rng.nextRange(12);
            for (std::uint64_t i = 0; i < n; ++i) {
                const Row v{static_cast<Row::rep>(
                    base + rng.nextRange(window))};
                sut->onRowRefresh(v);
                ref->onRowRefresh(v);
            }
        } else {
            const auto bytes = save(*sut);
            ASSERT_EQ(bytes, save(*ref)) << "checkpoint at step " << step;
            const bool fresh = rng.nextRange(2) == 0;
            if (fresh) {
                restored_dense_into_fresh |= sut->dense();
                sut = std::make_unique<FaultModel>(fc, kRows);
                ref = std::make_unique<reference::DenseFaultModel>(fc,
                                                                   kRows);
            }
            ckpt::Reader rs(bytes);
            sut->restoreState(rs);
            ckpt::Reader rr(bytes);
            ref->restoreState(rr);
            ASSERT_FALSE(rs.failed());
            ASSERT_FALSE(rr.failed());
            ASSERT_EQ(save(*sut), bytes) << "round trip at step " << step;
        }
        saw_sparse |= !sut->dense();
        saw_dense |= sut->dense();
        if (step % 997 == 0 || step + 1 == kSteps)
            expectSame(*sut, *ref, step);
        if (HasFatalFailure())
            return;
    }
    EXPECT_EQ(save(*sut), save(*ref));
    EXPECT_TRUE(saw_sparse);
    EXPECT_TRUE(saw_dense);
    EXPECT_TRUE(restored_dense_into_fresh);
    EXPECT_FALSE(ref->flips().empty());
}

INSTANTIATE_TEST_SUITE_P(
    RadiusAndRemap, FaultModelDiff,
    ::testing::Values(DiffCase{"r1", {1.0}, false},
                      DiffCase{"r1_remap", {1.0}, true},
                      DiffCase{"r3", {1.0, 0.25, 1.0 / 9.0}, false},
                      DiffCase{"r3_remap", {1.0, 0.25, 1.0 / 9.0}, true},
                      // A zero weight deposits nothing; such rows
                      // must not appear in either checkpoint.
                      DiffCase{"r3_zero_weight", {1.0, 0.0, 0.5}, false},
                      // Either side of the unit-weight rule: r1 runs
                      // count cells, these run charge cells.
                      DiffCase{"r2", {1.0, 0.25}, false},
                      DiffCase{"r1_half", {0.5}, false}),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return info.param.name;
    });

TEST(FaultModelStorage, SmallTableChurnMatchesReference)
{
    // A 256-row bank keeps a 16..64-slot table, so probe runs wrap
    // around the table's end all the time; insert/delete churn at
    // high load exercises every backward-shift case.
    constexpr std::uint64_t kSmallRows = 256;
    FaultConfig fc;
    fc.rowHammerThreshold = 1e9;
    FaultModel sut(fc, kSmallRows);
    reference::DenseFaultModel ref(fc, kSmallRows);
    Rng rng(99);
    for (int step = 0; step < 40000; ++step) {
        std::vector<Row> live;
        for (Row r{}; r.value() < kSmallRows; ++r)
            if (ref.disturbance(r) != 0.0)
                live.push_back(r);
        if (live.size() > 28 || (rng.nextRange(3) == 0 && !live.empty())) {
            const Row victim = live[rng.nextRange(live.size())];
            sut.onRowRefresh(victim);
            ref.onRowRefresh(victim);
        } else {
            const Row aggressor{
                static_cast<Row::rep>(rng.nextRange(kSmallRows))};
            sut.onActivate(Cycle{static_cast<std::uint64_t>(step)},
                           aggressor);
            ref.onActivate(Cycle{static_cast<std::uint64_t>(step)},
                           aggressor);
        }
        ASSERT_FALSE(sut.dense()) << "step " << step;
        for (Row r{}; r.value() < kSmallRows; ++r)
            ASSERT_EQ(sut.disturbance(r), ref.disturbance(r))
                << "row " << r << " at step " << step;
    }
}

TEST(FaultModelStorage, SparseUntilAQuarterOfTheDenseFootprint)
{
    // 64Ki rows: the table may reach 16Ki slots (a quarter of the
    // dense bytes) at load <= 1/2, so 8Ki live rows stay sparse.
    FaultConfig fc;
    FaultModel f(fc, 65536);
    EXPECT_FALSE(f.dense());
    // Isolated aggressors 4 rows apart: two live victims each.
    for (std::uint32_t i = 0; i < 4096; ++i)
        f.onActivate(Cycle{i}, Row{4 * i + 1});
    EXPECT_FALSE(f.dense()) << "8192 live rows";
    f.onActivate(Cycle{5000}, Row{4 * 4096 + 1});
    EXPECT_TRUE(f.dense()) << "8194 live rows";
    EXPECT_EQ(f.disturbance(Row{0}), 1.0);
    EXPECT_EQ(f.disturbance(Row{4 * 4096 + 2}), 1.0);
}

TEST(FaultModelStorage, TinyBanksStartDense)
{
    FaultModel f(FaultConfig{}, 32);
    EXPECT_TRUE(f.dense());
    f.onActivate(Cycle{0}, Row{31});
    EXPECT_EQ(f.disturbance(Row{30}), 1.0);
}

TEST(FaultModelStorage, RestoreOfAFewRowsReturnsToSparse)
{
    FaultConfig fc;
    FaultModel big(fc, 4096);
    for (std::uint32_t r = 0; r < 4096; r += 2)
        big.onActivate(Cycle{r}, Row{r});
    ASSERT_TRUE(big.dense());
    for (std::uint32_t r = 0; r < 4096; ++r)
        if (r < 4000)
            big.onRowRefresh(Row{r});
    ckpt::Writer w;
    big.saveState(w);
    ckpt::Reader rd(w.data());
    big.restoreState(rd);
    ASSERT_FALSE(rd.failed());
    EXPECT_FALSE(big.dense());
    EXPECT_EQ(big.disturbance(Row{4001}), 2.0);
    ckpt::Writer again;
    big.saveState(again);
    EXPECT_EQ(again.data(), w.data());
}

} // namespace
} // namespace dram
} // namespace graphene
