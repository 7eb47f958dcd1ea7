/**
 * @file
 * Tests for the protected rank: the ACT -> oracle -> scheme -> refresh
 * sequence both simulators share, and the ways its two owners differ
 * (metric names, the NRR metric, victim-burst deferral, scheme seeds).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "ckpt/io.hh"
#include "mem/protected_rank.hh"

namespace graphene {
namespace mem {
namespace {

using Owner = ProtectedRank::Owner;

schemes::SchemeSpec
spec(schemes::SchemeKind kind, std::uint64_t threshold)
{
    schemes::SchemeSpec s;
    s.kind = kind;
    s.rowHammerThreshold = threshold;
    return s;
}

dram::FaultConfig
noFlips()
{
    dram::FaultConfig f;
    f.rowHammerThreshold = 1e12;
    return f;
}

/**
 * Hammer rows 100 and 5000 of bank 0 back to back, each ACT at the
 * bank's earliest legal cycle, paying down refresh debt before each
 * ACT as the controller does. @return the victim rows refreshed and
 * the cycle of the last ACT.
 */
std::pair<std::uint64_t, Cycle>
hammer(ProtectedRank &rank, int acts)
{
    const dram::CycleTiming c = dram::TimingParams::ddr4_2400().inCycles();
    dram::Bank &bank = rank.dram().bank(0);
    Cycle t{};
    for (int i = 0; i < acts; ++i) {
        const Row row{i % 2 ? 100u : 5000u};
        rank.catchUpRefresh(t);
        const Cycle pay = rank.takeDebt(0, c.cRC);
        if (pay > Cycle{}) {
            const Cycle start = bank.earliestAct(t);
            bank.block(start, start + pay);
        }
        t = bank.earliestAct(t);
        bank.issueAct(t, row);
        bank.issuePrecharge(bank.earliestPrecharge(t));
        rank.activate(t, 0, row);
    }
    return {rank.dram().nrrRowCount(), t};
}

TEST(ProtectedRank, RefreshDebtConservesBusyTime)
{
    // A CBT-style large burst drained one row per ACT (the
    // controller's policy) must charge the same victim-row count and,
    // over time, the same bank busy cycles as refreshing it at once
    // (the engine's policy). CBT's warm start draws from the seed, so
    // the engine rank gets the seed the controller gives its bank 0.
    const auto timing = dram::TimingParams::ddr4_2400();
    const auto cbt = spec(schemes::SchemeKind::Cbt, 2000);
    auto cbt_bank0 = cbt;
    cbt_bank0.seed = cbt.seed * 1000003ULL;
    ProtectedRank deferred(Owner::Controller, timing, 1, 65536, noFlips(),
                           cbt, nullptr, 0);
    ProtectedRank atomic(Owner::ActEngine, timing, 1, 65536, noFlips(),
                         cbt_bank0, nullptr, 0);

    const auto [rows_deferred, end_deferred] = hammer(deferred, 4000);
    const auto [rows_atomic, end_atomic] = hammer(atomic, 4000);
    EXPECT_GT(rows_deferred, 0u);
    EXPECT_EQ(rows_deferred, rows_atomic);
    // Same total work: end times agree within one burst's length.
    const double ratio = static_cast<double>(end_deferred.value()) /
                         static_cast<double>(end_atomic.value());
    EXPECT_NEAR(ratio, 1.0, 0.05);
    EXPECT_EQ(atomic.takeDebt(0, Cycle{1000000}), Cycle{});
}

TEST(ProtectedRank, OwnersNameTheirMetrics)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "probes are compiled out";
    const auto timing = dram::TimingParams::ddr4_2400();
    const auto graphene = spec(schemes::SchemeKind::Graphene, 2000);
    const auto names = [&](Owner owner) {
        obs::Sink sink;
        ProtectedRank rank(owner, timing, 1, 65536, noFlips(), graphene,
                           &sink, 0);
        hammer(rank, 2000);
        EXPECT_GT(rank.nrrEvents(), 0u);
        EXPECT_EQ(rank.acts(), 2000u);
        // The schemes report their own metrics beside the rank's.
        std::set<std::string> out;
        for (const auto &[name, value] : sink.metrics.totalFields())
            if (name.starts_with("engine.") || name.starts_with("mem."))
                out.insert(name);
        return out;
    };
    EXPECT_EQ(names(Owner::ActEngine),
              (std::set<std::string>{"engine.acts", "engine.refs"}));
    EXPECT_EQ(names(Owner::Controller),
              (std::set<std::string>{"mem.acts", "mem.nrr_events",
                                     "mem.refs"}));
}

TEST(ProtectedRank, ControllerSeedsEachBankApart)
{
    // PARA draws from its seed: the engine's single scheme uses the
    // spec's seed, the controller's bank b seed * 1000003 + b. Bank 0
    // of a controller rank therefore differs from an engine rank.
    const auto timing = dram::TimingParams::ddr4_2400();
    auto para = spec(schemes::SchemeKind::Para, 2000);
    const auto victims = [&](Owner owner, std::uint64_t seed) {
        para.seed = seed;
        ProtectedRank rank(owner, timing, 1, 65536, noFlips(), para,
                           nullptr, 0);
        return hammer(rank, 20000).first;
    };
    EXPECT_EQ(victims(Owner::Controller, 7),
              victims(Owner::ActEngine, 7 * 1000003ULL));
    EXPECT_NE(victims(Owner::ActEngine, 7),
              victims(Owner::ActEngine, 7 * 1000003ULL));
}

TEST(ProtectedRank, StateRoundTripsWithDebt)
{
    // Save after N ACTs for N on either side of the end of a burst's
    // drain (bank 0 owes cycles at 2719, none at 2754).
    const auto timing = dram::TimingParams::ddr4_2400();
    const auto cbt = spec(schemes::SchemeKind::Cbt, 2000);
    bool saw_debt = false;
    for (int acts = 2705; acts <= 2754; acts += 7) {
        ProtectedRank source(Owner::Controller, timing, 2, 65536,
                             noFlips(), cbt, nullptr, 0);
        hammer(source, acts);
        ckpt::Writer w;
        source.saveState(w);

        ProtectedRank copy(Owner::Controller, timing, 2, 65536, noFlips(),
                           cbt, nullptr, 0);
        ckpt::Reader r(w.data());
        copy.restoreState(r);
        ASSERT_TRUE(r.finish().ok()) << acts;
        ckpt::Writer again;
        copy.saveState(again);
        ASSERT_EQ(again.data(), w.data()) << acts;
        const Cycle owed = source.takeDebt(0, Cycle{~0ULL});
        ASSERT_EQ(copy.takeDebt(0, Cycle{~0ULL}), owed) << acts;
        saw_debt |= owed > Cycle{};
    }
    EXPECT_TRUE(saw_debt);
}

} // namespace
} // namespace mem
} // namespace graphene
