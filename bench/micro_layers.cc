/**
 * @file
 * Google-benchmark microbenchmarks of the layers a system-sim request
 * crosses before it reaches a protection scheme: Zipf rank sampling,
 * synthetic address generation (one core, and a 16-core cell drawn
 * round-robin), address decode, rank set-up and the
 * fault oracle's onActivate in its sparse and its dense mode, and
 * across a cell's 64 fresh banks, with and without replaying their
 * logs.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/zipf.hh"
#include "dram/address.hh"
#include "dram/fault_model.hh"
#include "dram/rank.hh"
#include "workloads/profiles.hh"
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

/**
 * A rate-mode cell's generation: 16 cores running mcf (16Ki rows,
 * theta 0.3), each with its own generator, drawn round-robin as the
 * system sim interleaves them. Unlike BM_SyntheticNext it sees the
 * cell's Zipf footprint.
 */
void
BM_SyntheticCell(benchmark::State &state)
{
    const dram::AddressMapper mapper{dram::Geometry{}};
    const workloads::SyntheticParams params =
        workloads::appProfile("mcf").value();
    std::vector<workloads::SyntheticGenerator> gens;
    gens.reserve(16);
    for (unsigned core = 0; core < 16; ++core)
        gens.emplace_back(params, mapper, core, 1);
    std::size_t core = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gens[core].next());
        core = (core + 1) % gens.size();
    }
}
BENCHMARK(BM_SyntheticCell);

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
 * onActivate on a 64Ki-row bank. The bank leaves its log during the
 * warm-up. Arg 0 draws aggressors from a 2048-row working set, so the
 * bank stays sparse; arg 1 draws them uniformly, so it switches to
 * dense during warm-up. Every 8192 ACTs
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

/**
 * The fault oracle as a sys-normal cell sees it: 64 fresh 64Ki-row
 * banks, each fed ~3.7k ACTs drawn from 2048 rows of its own scattered
 * over the bank, the banks interleaved at random, with an eight-row
 * REF stripe every 23 ACTs of a bank. Every 64 x 3700 ACTs the banks
 * are built afresh, and that counts in the time per ACT. The ~5k log
 * entries of a bank stay below its 8Ki capacity and its ~3.7k ACTs
 * below the 50K threshold, so BM_FaultCell times appends to the log.
 * BM_FaultCellReplay ends each cell with peakDisturbance() on every
 * bank, which replays each log into a sparse table of ~3.3k live rows
 * grown from 16 to 8Ki slots: the cell's whole table work.
 */
void
faultCell(benchmark::State &state, bool replay)
{
    constexpr unsigned kBanks = 64;
    constexpr std::uint64_t kRows = 65536;
    constexpr std::uint64_t kSpan = 2048;
    constexpr std::uint64_t kActsPerCell = kBanks * 3700;
    Rng rng(4);
    std::vector<Row> aggressors(kBanks * kSpan);
    for (Row &row : aggressors)
        row = Row{static_cast<Row::rep>(1 + rng.nextRange(kRows - 2))};
    std::vector<dram::FaultModel> banks;
    std::vector<std::uint64_t> acts;
    std::vector<Row> stripes;
    std::uint64_t left = 0;
    for (auto _ : state) {
        if (left == 0) {
            for (const dram::FaultModel &bank : banks) {
                GRAPHENE_CHECK(bank.logging(),
                               "fault bench: a bank left its log");
                if (replay)
                    benchmark::DoNotOptimize(bank.peakDisturbance());
            }
            banks.assign(kBanks, dram::FaultModel(dram::FaultConfig{}, kRows));
            acts.assign(kBanks, 0);
            stripes.assign(kBanks, Row{});
            left = kActsPerCell;
        }
        const auto b = static_cast<unsigned>(rng.nextRange(kBanks));
        banks[b].onActivate(Cycle{--left},
                            aggressors[b * kSpan + rng.nextRange(kSpan)]);
        if (++acts[b] % 23 == 0) {
            for (int i = 0; i < 8; ++i, ++stripes[b])
                banks[b].onRowRefresh(stripes[b]);
        }
    }
}

void
BM_FaultCell(benchmark::State &state)
{
    faultCell(state, false);
}
BENCHMARK(BM_FaultCell);

void
BM_FaultCellReplay(benchmark::State &state)
{
    faultCell(state, true);
}
BENCHMARK(BM_FaultCellReplay);

} // namespace
