/**
 * @file
 * Google-benchmark microbenchmarks of the per-ACT critical path:
 * Misra-Gries table updates (hit / spill / replace — the paper's
 * two-CAM-search-plus-write pipeline, Figure 5) and the full
 * onActivate() of every protection scheme on a legal ACT stream.
 */

#include <algorithm>

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "core/counter_table.hh"
#include "core/graphene.hh"
#include "schemes/factory.hh"

namespace {

using namespace graphene;

void
BM_CounterTableHit(benchmark::State &state)
{
    core::CounterTable table(81);
    table.processActivation(Row{42});
    for (auto _ : state)
        benchmark::DoNotOptimize(table.processActivation(Row{42}));
}
BENCHMARK(BM_CounterTableHit);

void
BM_CounterTableSpill(benchmark::State &state)
{
    core::CounterTable table(81);
    // Fill every slot beyond the spillover value so misses spill.
    for (Row r{}; r.value() < 81; ++r) {
        table.processActivation(r);
        table.processActivation(r);
    }
    Row miss{1000};
    for (auto _ : state)
        benchmark::DoNotOptimize(table.processActivation(miss++));
}
BENCHMARK(BM_CounterTableSpill);

void
BM_CounterTableReplaceHeavy(benchmark::State &state)
{
    // Round-robin over more rows than entries: the worst-case mix of
    // replacements and spills.
    core::CounterTable table(81);
    Row r{};
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.processActivation(r));
        r = Row{(r.value() + 1) % 200};
    }
}
BENCHMARK(BM_CounterTableReplaceHeavy);

void
BM_SchemeOnActivate(benchmark::State &state)
{
    // A legal single-bank stream paced like sim::ActStreamEngine: one
    // ACT per tRC, and every tREFI a REF that the scheme sees through
    // onRefresh() and that blocks the bank for tRFC. Without the REF
    // blackout the stream exceeds the per-window ACT budget W the
    // Graphene table is sized for.
    schemes::SchemeSpec spec;
    spec.kind = static_cast<schemes::SchemeKind>(state.range(0));
    auto scheme = unwrapOrFatal(schemes::makeScheme(spec));
    const Cycle rc = spec.timing.inCycles().cRC;
    const Cycle refi = spec.timing.inCycles().cREFI;
    const Cycle rfc = spec.timing.inCycles().cRFC;
    Rng rng(1);
    RefreshAction action;
    Cycle cycle{};
    Cycle next_ref = refi;
    for (auto _ : state) {
        if (next_ref <= cycle) {
            action.clear();
            scheme->onRefresh(next_ref, action);
            cycle = std::max(cycle, next_ref + rfc);
            next_ref += refi;
        }
        action.clear();
        scheme->onActivate(
            cycle, Row{static_cast<Row::rep>(rng.nextRange(65536))},
            action);
        cycle += rc;
        benchmark::DoNotOptimize(action);
    }
    state.SetLabel(scheme->name());
}
BENCHMARK(BM_SchemeOnActivate)
    ->Arg(static_cast<int>(schemes::SchemeKind::Graphene))
    ->Arg(static_cast<int>(schemes::SchemeKind::Para))
    ->Arg(static_cast<int>(schemes::SchemeKind::ProHit))
    ->Arg(static_cast<int>(schemes::SchemeKind::MrLoc))
    ->Arg(static_cast<int>(schemes::SchemeKind::Cbt))
    ->Arg(static_cast<int>(schemes::SchemeKind::TwiCe));

void
BM_GrapheneHammerLoop(benchmark::State &state)
{
    // The attacker-facing fast path: one hot row hammered; the trigger
    // fires every T updates.
    core::GrapheneConfig config;
    config.resetWindowDivisor = 2;
    core::Graphene graphene(config);
    RefreshAction action;
    Cycle cycle{};
    for (auto _ : state) {
        action.clear();
        graphene.onActivate(cycle, Row{12345}, action);
        cycle += Cycle{54};
        benchmark::DoNotOptimize(action);
    }
}
BENCHMARK(BM_GrapheneHammerLoop);

} // namespace
