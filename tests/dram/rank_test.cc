/**
 * @file
 * Tests for the rank: auto-refresh rotation, NRR expansion, and
 * victim-row refresh. Refreshes are observed through the fault model:
 * charge every row of a bank, then see which rows lost it.
 */

#include <gtest/gtest.h>

#include <set>

#include "dram/rank.hh"

namespace graphene {
namespace dram {
namespace {

FaultConfig
defaultFault()
{
    FaultConfig c;
    c.rowHammerThreshold = 1e12; // physics disabled for these tests
    return c;
}

/** Deposit disturbance on every row of @p bank (each has a neighbour). */
void
chargeEveryRow(Rank &rank, unsigned bank)
{
    FaultModel &f = rank.faultModel(bank);
    for (Row r{}; r.value() < f.numRows(); ++r)
        f.onActivate(Cycle{0}, r);
}

/** The rows of @p bank whose charge a refresh has restored. */
std::set<Row>
refreshedRows(const Rank &rank, unsigned bank)
{
    std::set<Row> rows;
    const FaultModel &f = rank.faultModel(bank);
    for (Row r{}; r.value() < f.numRows(); ++r)
        if (f.disturbance(r) == 0.0)
            rows.insert(r);
    return rows;
}

TEST(Rank, RefreshRotationCoversEveryRowWithinWindow)
{
    TimingParams t = TimingParams::ddr4_2400();
    const std::uint64_t rows = 65536;
    Rank rank(t, 2, rows, defaultFault());
    chargeEveryRow(rank, 0);
    ASSERT_TRUE(refreshedRows(rank, 0).empty());

    const std::uint64_t refs_per_window =
        static_cast<std::uint64_t>(t.tREFW / t.tREFI);
    for (std::uint64_t i = 0; i < refs_per_window; ++i)
        rank.issueRefresh(rank.nextRefreshDue());

    EXPECT_EQ(refreshedRows(rank, 0).size(), rows);
    EXPECT_EQ(rank.refreshCount(), refs_per_window);
}

TEST(Rank, RefreshBlocksBanksForTrfc)
{
    TimingParams t = TimingParams::ddr4_2400();
    Rank rank(t, 2, 1024, defaultFault());
    const Cycle due = rank.nextRefreshDue();
    rank.issueRefresh(due);
    EXPECT_GE(rank.bank(0).earliestAct(due), due + t.inCycles().cRFC);
    EXPECT_GE(rank.bank(1).earliestAct(due), due + t.inCycles().cRFC);
}

TEST(Rank, EarlyRefreshPanics)
{
    TimingParams t = TimingParams::ddr4_2400();
    Rank rank(t, 1, 1024, defaultFault());
    EXPECT_DEATH(rank.issueRefresh(Cycle{0}), "REF");
}

TEST(Rank, NrrRefreshesVictimsAtDistance)
{
    TimingParams t = TimingParams::ddr4_2400();
    Rank rank(t, 1, 1024, defaultFault());
    chargeEveryRow(rank, 0);

    const unsigned count = rank.issueNrr(Cycle{100}, 0, Row{500}, 2);
    EXPECT_EQ(count, 4u);
    EXPECT_EQ(refreshedRows(rank, 0),
              (std::set<Row>{Row{498}, Row{499}, Row{501},
                             Row{502}}));
    EXPECT_EQ(rank.nrrRowCount(), 4u);
}

TEST(Rank, NrrClipsAtBankEdge)
{
    TimingParams t = TimingParams::ddr4_2400();
    Rank rank(t, 1, 1024, defaultFault());
    EXPECT_EQ(rank.issueNrr(Cycle{0}, 0, Row{0}, 2), 2u);    // only +1, +2
    EXPECT_EQ(rank.issueNrr(Cycle{0}, 0, Row{1023}, 1), 1u); // only -1
}

TEST(Rank, NrrBlocksBankPerRow)
{
    TimingParams t = TimingParams::ddr4_2400();
    Rank rank(t, 1, 1024, defaultFault());
    rank.issueNrr(Cycle{1000}, 0, Row{500}, 1);
    EXPECT_GE(rank.bank(0).earliestAct(Cycle{1000}),
              Cycle{1000} + t.inCycles().cRC * 2);
}

TEST(Rank, VictimRowListRefresh)
{
    TimingParams t = TimingParams::ddr4_2400();
    Rank rank(t, 1, 1024, defaultFault());
    chargeEveryRow(rank, 0);
    rank.refreshVictimRows(Cycle{0}, 0, {Row{10}, Row{20}, Row{30}});
    EXPECT_EQ(refreshedRows(rank, 0),
              (std::set<Row>{Row{10}, Row{20}, Row{30}}));
    EXPECT_EQ(rank.nrrRowCount(), 3u);
    EXPECT_GE(rank.bank(0).earliestAct(Cycle{0}), t.inCycles().cRC * 3);
}

TEST(Rank, RefreshClearsFaultDisturbance)
{
    TimingParams t = TimingParams::ddr4_2400();
    FaultConfig fc;
    fc.rowHammerThreshold = 1000.0;
    Rank rank(t, 1, 1024, fc);
    for (std::uint64_t i = 0; i < 100; ++i)
        rank.notifyActivate(Cycle{i}, 0, Row{500});
    EXPECT_DOUBLE_EQ(rank.faultModel(0).disturbance(Row{499}), 100.0);
    rank.issueNrr(Cycle{200}, 0, Row{500}, 1);
    EXPECT_DOUBLE_EQ(rank.faultModel(0).disturbance(Row{499}), 0.0);
    EXPECT_DOUBLE_EQ(rank.faultModel(0).disturbance(Row{501}), 0.0);
}

TEST(Rank, FawAllowsFourFastActs)
{
    TimingParams t = TimingParams::ddr4_2400();
    Rank rank(t, 8, 1024, defaultFault());
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(rank.earliestFawAct(Cycle{static_cast<std::uint64_t>(i)}),
                  Cycle{static_cast<std::uint64_t>(i)});
        rank.recordFawAct(Cycle{static_cast<std::uint64_t>(i)});
    }
    // The fifth ACT waits until the first leaves the window.
    EXPECT_EQ(rank.earliestFawAct(Cycle{4}), t.inCycles().cFAW);
}

TEST(Rank, FawWindowSlides)
{
    TimingParams t = TimingParams::ddr4_2400();
    Rank rank(t, 8, 1024, defaultFault());
    const Cycle faw = t.inCycles().cFAW;
    rank.recordFawAct(Cycle{0});
    rank.recordFawAct(Cycle{10});
    rank.recordFawAct(Cycle{20});
    rank.recordFawAct(Cycle{30});
    EXPECT_EQ(rank.earliestFawAct(Cycle{5}), faw);
    rank.recordFawAct(faw);
    // Now the oldest is the ACT at 10.
    EXPECT_EQ(rank.earliestFawAct(faw), Cycle{10} + faw);
}

TEST(Rank, FawNeverBindsBeforeFourActs)
{
    TimingParams t = TimingParams::ddr4_2400();
    Rank rank(t, 8, 1024, defaultFault());
    rank.recordFawAct(Cycle{100});
    rank.recordFawAct(Cycle{100});
    rank.recordFawAct(Cycle{100});
    EXPECT_EQ(rank.earliestFawAct(Cycle{100}), Cycle{100});
}

TEST(Rank, RowsPerRefreshCoversBank)
{
    TimingParams t = TimingParams::ddr4_2400();
    Rank rank(t, 1, 65536, defaultFault());
    const std::uint64_t refs =
        static_cast<std::uint64_t>(t.tREFW / t.tREFI);
    EXPECT_GE(rank.rowsPerRefresh() * refs, 65536u);
}

} // namespace
} // namespace dram
} // namespace graphene
