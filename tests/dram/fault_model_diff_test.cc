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
 *
 * The FaultModelLog cases pin a unit-weight bank's log: while it holds
 * every entry, at the ACT that could first reach the threshold, at its
 * capacity, across a save taken mid-log, and under remapping. They
 * query charges only at the end (a query replays the log), and compare
 * flips(), which never replays, after every entry.
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
            // One REF stripe: seven consecutive rows, rotating, so
            // that stripes wrap past the last row.
            sut->onRefreshStripe(Row{static_cast<Row::rep>(stripe)}, 7);
            for (int i = 0; i < 7; ++i, stripe = (stripe + 1) % kRows)
                ref->onRowRefresh(Row{static_cast<Row::rep>(stripe)});
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

/** The model and the dense reference driven in step. */
struct Lockstep
{
    Lockstep(const FaultConfig &fc, std::uint64_t rows)
        : rows(rows), sut(std::make_unique<FaultModel>(fc, rows)),
          ref(fc, rows)
    {
    }

    void act(Row aggressor)
    {
        sut->onActivate(Cycle{cycle}, aggressor);
        ref.onActivate(Cycle{cycle}, aggressor);
        ++cycle;
    }

    void refresh(Row row)
    {
        sut->onRowRefresh(row);
        ref.onRowRefresh(row);
    }

    /** The next REF stripe of @p length rows, wrapping at the end. */
    void refreshStripe(std::uint64_t length = kStripeRows)
    {
        sut->onRefreshStripe(Row{static_cast<Row::rep>(stripe)}, length);
        for (std::uint64_t i = 0; i < length; ++i, stripe = (stripe + 1) % rows)
            ref.onRowRefresh(Row{static_cast<Row::rep>(stripe)});
    }

    /// Seven rows, so that a 4096-row bank's stripes wrap.
    static constexpr std::uint64_t kStripeRows = 7;

    /**
     * @p entries log entries: ACTs (mostly around two hot rows near
     * row 1000), single-row refreshes and rotating REF stripes, with
     * the flip logs compared after each one.
     */
    void drive(Rng &rng, std::uint64_t entries)
    {
        for (std::uint64_t i = 0; i < entries; ++i) {
            const std::uint64_t op = rng.nextRange(10);
            if (op < 3)
                act(Row{static_cast<Row::rep>(1040 + 2 * rng.nextRange(2))});
            else if (op < 8)
                act(Row{static_cast<Row::rep>(1000 + rng.nextRange(96))});
            else if (op == 8)
                refresh(Row{static_cast<Row::rep>(1000 + rng.nextRange(96))});
            else
                refreshStripe();
            ASSERT_EQ(sut->flips().size(), ref.flips().size())
                << "entry " << i;
        }
    }

    std::uint64_t rows;
    std::unique_ptr<FaultModel> sut;
    reference::DenseFaultModel ref;
    std::uint64_t cycle = 0;
    std::uint64_t stripe = 0;
};

template <class Model>
std::vector<std::uint8_t>
bytesOf(const Model &m)
{
    ckpt::Writer w;
    m.saveState(w);
    return w.data();
}

/** Every row's charge, the flips, the peak and the checkpoint bytes. */
void
expectAgree(const Lockstep &s)
{
    for (Row r{}; r.value() < s.rows; ++r)
        ASSERT_EQ(s.sut->disturbance(r), s.ref.disturbance(r))
            << "row " << r;
    const auto &got = s.sut->flips();
    const auto &want = s.ref.flips();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].victimRow, want[i].victimRow) << "flip " << i;
        EXPECT_EQ(got[i].cycle, want[i].cycle) << "flip " << i;
        EXPECT_EQ(got[i].disturbance, want[i].disturbance) << "flip " << i;
    }
    EXPECT_EQ(s.sut->peakDisturbance(), s.ref.peakDisturbance());
    EXPECT_EQ(bytesOf(*s.sut), bytesOf(s.ref));
}

FaultConfig
unitConfig(double threshold, bool remap = false,
           std::vector<double> mu = {1.0})
{
    FaultConfig fc;
    fc.rowHammerThreshold = threshold;
    fc.mu = std::move(mu);
    fc.remap = remap;
    return fc;
}

/// A 4096-row bank logs at most 4096 / 8 entries.
constexpr std::uint64_t kLogRows = 4096;
constexpr std::uint64_t kLogCapacity = kLogRows / 8;

void
staysLogged(const FaultConfig &fc)
{
    Lockstep s(fc, kLogRows);
    Rng rng(7);
    s.drive(rng, kLogCapacity - 12);
    ASSERT_TRUE(s.sut->logging());
    EXPECT_GT(s.ref.peakDisturbance(), 1.0);
    // A save straight from the log, on a copy that is still logging.
    const FaultModel copy = *s.sut;
    ASSERT_TRUE(copy.logging());
    EXPECT_EQ(bytesOf(copy), bytesOf(s.ref));
    EXPECT_FALSE(copy.logging());
    expectAgree(s);
}

TEST(FaultModelLog, StaysLoggedThroughASequence)
{
    staysLogged(unitConfig(1000.0));
}

TEST(FaultModelLog, StaysLoggedWithRemap)
{
    staysLogged(unitConfig(1000.0, true));
}

TEST(FaultModelLog, StaysLoggedAtUnitRadiusTwo)
{
    staysLogged(unitConfig(1000.0, false, {1.0, 1.0}));
}

void
flipEndsTheLog(const FaultConfig &fc)
{
    // 64 ACTs of one aggressor, interleaved with refreshes of rows
    // far away: its neighbours reach T = 64 on the 64th ACT, which is
    // the first ACT that could reach it.
    Lockstep s(fc, kLogRows);
    for (std::uint32_t i = 0; i < 63; ++i) {
        s.refresh(Row{3000 + i});
        s.act(Row{100});
    }
    ASSERT_TRUE(s.sut->logging());
    ASSERT_TRUE(s.sut->flips().empty());
    s.act(Row{100});
    EXPECT_FALSE(s.sut->logging());
    ASSERT_EQ(s.ref.flips().size(), 2 * fc.mu.size());
    EXPECT_EQ(s.sut->flips().size(), s.ref.flips().size());
    EXPECT_EQ(s.ref.flips()[0].cycle, Cycle{63});
    expectAgree(s);
}

TEST(FaultModelLog, FirstFlipLandsOnTheActThatEndsTheLog)
{
    flipEndsTheLog(unitConfig(64.0));
}

TEST(FaultModelLog, FirstFlipEndsTheLogWithRemap)
{
    flipEndsTheLog(unitConfig(64.0, true));
}

TEST(FaultModelLog, ReplaysAtCapacity)
{
    // The entry past the capacity replays first, whether it is an
    // ACT, a refresh or a REF stripe.
    for (const int kind : {0, 1, 2}) {
        Lockstep s(unitConfig(1e6), kLogRows);
        Rng rng(11);
        s.drive(rng, kLogCapacity);
        ASSERT_TRUE(s.sut->logging()) << "kind " << kind;
        if (kind == 0)
            s.act(Row{1041});
        else if (kind == 1)
            s.refresh(Row{1041});
        else
            s.refreshStripe();
        EXPECT_FALSE(s.sut->logging()) << "kind " << kind;
        expectAgree(s);
    }
}

TEST(FaultModelLog, AStripeIsOneEntry)
{
    // A whole REF rotation of 4096 rows in 4-row stripes is 1024
    // stripes; a bank logs twice that many before it is full.
    Lockstep s(unitConfig(1e6), kLogRows);
    for (std::uint32_t i = 0; i < 200; ++i)
        s.act(Row{1000 + i % 50});
    for (std::uint64_t i = 0; i < kLogCapacity - 200; ++i)
        s.refreshStripe(4);
    EXPECT_TRUE(s.sut->logging());
    s.refreshStripe(4);
    EXPECT_FALSE(s.sut->logging());
    expectAgree(s);
}

TEST(FaultModelLog, AStripeOfAnotherLengthReplays)
{
    // The log keeps one stripe length; a stripe of another length
    // leaves the log, and the table clears its rows.
    Lockstep s(unitConfig(1e6), kLogRows);
    Rng rng(17);
    s.drive(rng, 300);
    ASSERT_TRUE(s.sut->logging());
    s.stripe = 1030;
    s.refreshStripe(3);
    EXPECT_FALSE(s.sut->logging());
    s.drive(rng, 300);
    expectAgree(s);
}

TEST(FaultModelLog, ActBoundReplaysALogOfStripes)
{
    // Stripes sweep the hot pair's victims while the log runs; the
    // ACT that could reach the threshold replays them mid-log.
    Lockstep s(unitConfig(64.0), kLogRows);
    s.stripe = 95;
    for (std::uint32_t i = 0; i < 63; ++i) {
        s.act(Row{100});
        if (i % 8 == 0)
            s.refreshStripe();
    }
    ASSERT_TRUE(s.sut->logging());
    s.act(Row{100});
    EXPECT_FALSE(s.sut->logging());
    EXPECT_TRUE(s.sut->flips().empty()) << "the stripes refreshed row 101";
    expectAgree(s);
}

TEST(FaultModelLog, AFreshBankKeepsLoggingThroughASave)
{
    Lockstep s(unitConfig(1000.0), kLogRows);
    ASSERT_TRUE(s.sut->logging());
    EXPECT_EQ(bytesOf(*s.sut), bytesOf(s.ref));
    EXPECT_FALSE(s.sut->dense());
    EXPECT_TRUE(s.sut->logging()) << "an empty log has nothing to replay";
    Rng rng(3);
    s.drive(rng, kLogCapacity - 12);
    ASSERT_TRUE(s.sut->logging());
    expectAgree(s);
}

TEST(FaultModelLog, SaveMidLogRestoresIntoAFreshModelAndContinues)
{
    const FaultConfig fc = unitConfig(300.0);
    Lockstep s(fc, kLogRows);
    Rng rng(13);
    s.drive(rng, 200);
    ASSERT_TRUE(s.sut->logging());
    const auto bytes = bytesOf(*s.sut);
    ASSERT_EQ(bytes, bytesOf(s.ref));
    s.sut = std::make_unique<FaultModel>(fc, kLogRows);
    ckpt::Reader r(bytes);
    s.sut->restoreState(r);
    ASSERT_FALSE(r.failed());
    EXPECT_FALSE(s.sut->logging()) << "a restore lands in the table";
    s.drive(rng, 4000);
    EXPECT_FALSE(s.ref.flips().empty());
    expectAgree(s);
}

TEST(FaultModelLog, RandomSequencesMatchReference)
{
    // Low thresholds replay on the ACT bound, high ones at capacity;
    // flips follow the replay in both.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        for (const bool remap : {false, true}) {
            const double threshold = seed % 3 == 0 ? 1e6 : 40.0 * seed;
            Lockstep s(unitConfig(threshold, remap), kLogRows);
            Rng rng(seed);
            s.drive(rng, 3000);
            expectAgree(s);
            if (HasFailure())
                FAIL() << "seed " << seed << " remap " << remap;
        }
    }
}

TEST(FaultModelLog, ReplaySwitchesToDenseAtTheSameLiveCount)
{
    // As SparseUntilAQuarterOfTheDenseFootprint, but the 8192 live
    // rows come out of a replayed log: the table sized for the log's
    // victims stays sparse until the same insert switches it.
    FaultModel f(unitConfig(50000.0), 65536);
    for (std::uint32_t i = 0; i < 4096; ++i)
        f.onActivate(Cycle{i}, Row{4 * i + 1});
    ASSERT_TRUE(f.logging());
    EXPECT_FALSE(f.dense()) << "8192 live rows";
    EXPECT_FALSE(f.logging());
    f.onActivate(Cycle{5000}, Row{4 * 4096 + 1});
    EXPECT_TRUE(f.dense()) << "8194 live rows";
    EXPECT_EQ(f.disturbance(Row{0}), 1.0);
    EXPECT_EQ(f.disturbance(Row{4 * 4096 + 2}), 1.0);
}

TEST(FaultModelLog, ChargeCellsAndTinyBanksNeverLog)
{
    EXPECT_TRUE(FaultModel(unitConfig(50000.0), kLogRows).logging());
    EXPECT_TRUE(
        FaultModel(unitConfig(50000.0, false, {1.0, 1.0}), kLogRows)
            .logging());
    for (const auto &mu : std::vector<std::vector<double>>{
             {0.5}, {1.0, 0.25}, {1.0, 0.25, 1.0 / 9.0}}) {
        Lockstep s(unitConfig(40.0, false, mu), kLogRows);
        EXPECT_FALSE(s.sut->logging()) << "radius " << mu.size();
        Rng rng(mu.size());
        s.drive(rng, 500);
        expectAgree(s);
    }
    Lockstep tiny(unitConfig(40.0), 32);
    EXPECT_FALSE(tiny.sut->logging());
    EXPECT_TRUE(tiny.sut->dense());
    for (std::uint32_t i = 0; i < 100; ++i)
        tiny.act(Row{i % 32});
    expectAgree(tiny);
}

} // namespace
} // namespace dram
} // namespace graphene
