/**
 * @file
 * Tests for the per-bank DRAM state machine.
 */

#include <gtest/gtest.h>

#include "dram/bank.hh"
#include "dram/command.hh"

namespace graphene {
namespace dram {
namespace {

class BankTest : public ::testing::Test
{
  protected:
    TimingParams timing = TimingParams::ddr4_2400();
    Bank bank{timing, 65536};
};

TEST_F(BankTest, StartsClosed)
{
    EXPECT_FALSE(bank.isOpen());
    EXPECT_EQ(bank.openRow(), Row::invalid());
    EXPECT_EQ(bank.earliestAct(Cycle{0}), Cycle{0});
}

TEST_F(BankTest, ActOpensRow)
{
    bank.issueAct(Cycle{0}, Row{42});
    EXPECT_TRUE(bank.isOpen());
    EXPECT_EQ(bank.openRow(), Row{42});
    EXPECT_EQ(bank.actCount().value(), 1u);
}

TEST_F(BankTest, ReadWaitsForRcd)
{
    bank.issueAct(Cycle{0}, Row{42});
    const CycleTiming c = timing.inCycles();
    EXPECT_EQ(bank.earliestReadWrite(Cycle{0}), c.cRCD);
    const Cycle done = bank.issueReadWrite(c.cRCD);
    EXPECT_EQ(done, c.cRCD + c.cCL + c.cBL);
}

TEST_F(BankTest, PrechargeWaitsForRas)
{
    bank.issueAct(Cycle{0}, Row{42});
    EXPECT_EQ(bank.earliestPrecharge(Cycle{0}), timing.inCycles().cRAS);
    bank.issuePrecharge(timing.inCycles().cRAS);
    EXPECT_FALSE(bank.isOpen());
}

TEST_F(BankTest, ActToActRespectsTrc)
{
    bank.issueAct(Cycle{0}, Row{1});
    bank.issuePrecharge(bank.earliestPrecharge(Cycle{0}));
    // The next ACT must wait for both tRAS + tRP and tRC; with DDR4
    // numbers tRC (54 cyc) > tRAS + tRP (39 + 16 = 55?) — check via
    // the bank's own bound rather than assuming.
    const Cycle next = bank.earliestAct(Cycle{0});
    EXPECT_GE(next, timing.inCycles().cRC);
    bank.issueAct(next, Row{2});
    EXPECT_EQ(bank.openRow(), Row{2});
}

TEST_F(BankTest, MaxActRateIsBoundedByTrc)
{
    // Issue 1000 back-to-back ACT/PRE pairs as fast as legal; the
    // elapsed time must be >= 1000 * tRC (the bound W relies on).
    Cycle now{};
    for (int i = 0; i < 1000; ++i) {
        now = bank.earliestAct(now);
        bank.issueAct(now, Row{static_cast<Row::rep>(i)});
        bank.issuePrecharge(bank.earliestPrecharge(now));
    }
    EXPECT_GE(now, timing.inCycles().cRC * 999);
}

TEST_F(BankTest, EarlyActPanics)
{
    bank.issueAct(Cycle{0}, Row{1});
    bank.issuePrecharge(bank.earliestPrecharge(Cycle{0}));
    EXPECT_DEATH(bank.issueAct(Cycle{1}, Row{2}), "ACT");
}

TEST_F(BankTest, ActToOpenBankPanics)
{
    bank.issueAct(Cycle{0}, Row{1});
    EXPECT_DEATH(bank.issueAct(timing.inCycles().cRC, Row{2}), "open");
}

TEST_F(BankTest, OutOfRangeRowPanics)
{
    EXPECT_DEATH(bank.issueAct(Cycle{0}, Row{70000}), "out-of-range");
}

TEST_F(BankTest, ReadWithoutOpenRowPanics)
{
    EXPECT_DEATH(bank.issueReadWrite(Cycle{100}), "no open row");
}

TEST_F(BankTest, BlockDelaysEverything)
{
    bank.issueAct(Cycle{0}, Row{1});
    bank.block(Cycle{10}, Cycle{5000});
    EXPECT_FALSE(bank.isOpen());
    EXPECT_GE(bank.earliestAct(Cycle{0}), Cycle{5000});
    EXPECT_GE(bank.earliestReadWrite(Cycle{0}), Cycle{5000});
}

TEST_F(BankTest, ConsecutiveReadsPipelinePerBurst)
{
    bank.issueAct(Cycle{0}, Row{1});
    Cycle t = bank.earliestReadWrite(Cycle{0});
    bank.issueReadWrite(t);
    const Cycle t2 = bank.earliestReadWrite(t);
    EXPECT_EQ(t2, t + timing.inCycles().cBL);
}

TEST(CommandNames, AllNamed)
{
    EXPECT_STREQ(commandName(Command::ACT), "ACT");
    EXPECT_STREQ(commandName(Command::PRE), "PRE");
    EXPECT_STREQ(commandName(Command::RD), "RD");
    EXPECT_STREQ(commandName(Command::WR), "WR");
    EXPECT_STREQ(commandName(Command::REF), "REF");
    EXPECT_STREQ(commandName(Command::NRR), "NRR");
}

} // namespace
} // namespace dram
} // namespace graphene
