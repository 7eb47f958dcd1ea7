/**
 * @file
 * Google-benchmark microbenchmarks of the layers a system-sim request
 * crosses before it reaches a protection scheme: Zipf rank sampling,
 * synthetic address generation, address decode, rank set-up and the
 * fault oracle's onActivate in its sparse and its dense mode.
 */

#include <benchmark/benchmark.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/zipf.hh"
#include "dram/address.hh"
#include "dram/fault_model.hh"
#include "dram/rank.hh"
#include "workloads/synthetic.hh"

namespace {

using namespace graphene;

/** Args: population n, skew theta in hundredths. */
void
BM_ZipfSample(benchmark::State &state)
{
    const ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)),
                           static_cast<double>(state.range(1)) / 100.0);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample)
    ->Args({4096, 45})
    ->Args({16384, 0})
    ->Args({16384, 30})
    ->Args({1 << 20, 99});

void
BM_SyntheticNext(benchmark::State &state)
{
    const dram::AddressMapper mapper{dram::Geometry{}};
    workloads::SyntheticParams params;
    params.workingSetRows = 16384;
    params.zipfTheta = 0.3;
    workloads::SyntheticGenerator gen(params, mapper, 3, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_SyntheticNext);

void
BM_AddressDecode(benchmark::State &state)
{
    const dram::AddressMapper mapper(
        dram::Geometry{}, static_cast<dram::MappingPolicy>(state.range(0)));
    const std::uint64_t capacity = mapper.geometry().capacityBytes();
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            mapper.decode(Addr{rng.nextRange(capacity)}));
    state.SetLabel(mappingPolicyName(mapper.policy()));
}
BENCHMARK(BM_AddressDecode)
    ->Arg(static_cast<int>(dram::MappingPolicy::ChannelInterleaved))
    ->Arg(static_cast<int>(dram::MappingPolicy::RowContiguous));

/** One channel's rank: 16 banks of 64Ki rows, each with a fault model. */
void
BM_RankSetup(benchmark::State &state)
{
    const dram::TimingParams timing = dram::TimingParams::ddr4_2400();
    const dram::FaultConfig fault;
    for (auto _ : state) {
        dram::Rank rank(timing, 16, 65536, fault);
        benchmark::DoNotOptimize(rank);
    }
}
BENCHMARK(BM_RankSetup);

/**
 * onActivate on a 64Ki-row bank. Arg 0 draws aggressors from a
 * 2048-row working set, so the bank stays sparse; arg 1 draws them
 * uniformly, so it switches to dense during warm-up. Every 8192 ACTs
 * a REF stripe of eight rows is refreshed, as the rank does.
 */
void
BM_FaultActivate(benchmark::State &state)
{
    const bool uniform = state.range(0) != 0;
    const std::uint64_t rows = 65536;
    const std::uint64_t span = uniform ? rows : 2048;
    dram::FaultModel fault(dram::FaultConfig{}, rows);
    Rng rng(3);
    std::uint64_t acts = 0;
    Row stripe{};
    const auto act = [&] {
        fault.onActivate(Cycle{acts},
                         Row{static_cast<Row::rep>(rng.nextRange(span))});
        if ((++acts & 8191) == 0) {
            for (int i = 0; i < 8; ++i, ++stripe)
                fault.onRowRefresh(
                    Row{static_cast<Row::rep>(stripe.value() % rows)});
        }
    };
    for (int i = 0; i < 200000; ++i)
        act();
    GRAPHENE_CHECK(fault.dense() == uniform,
                   "fault bench: bank in the wrong storage mode");
    for (auto _ : state)
        act();
    state.SetLabel(uniform ? "dense" : "sparse");
}
BENCHMARK(BM_FaultActivate)->Arg(0)->Arg(1);

} // namespace
