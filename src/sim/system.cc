#include "sim/system.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cancel.hh"
#include "common/logging.hh"
#include "model/energy.hh"

namespace graphene {
namespace sim {

double
SystemResult::speedupLossVs(const SystemResult &baseline) const
{
    GRAPHENE_CHECK(coreRequests.size() == baseline.coreRequests.size(),
                   "speedup comparison across different core counts");
    double ws = 0.0;
    for (std::size_t i = 0; i < coreRequests.size(); ++i) {
        GRAPHENE_CHECK(baseline.coreRequests[i] != 0,
                       "baseline core %zu made no progress", i);
        ws += static_cast<double>(coreRequests[i]) /
              static_cast<double>(baseline.coreRequests[i]);
    }
    const double loss =
        1.0 - ws / static_cast<double>(coreRequests.size());
    return loss;
}

Result<void>
SystemConfig::validate() const
{
    ErrorCollector errors(ErrorCode::Config, "system config");
    if (numCores == 0)
        errors.add("need at least one core");
    if (!(windows > 0.0))
        errors.add("simulated span must be a positive number of "
                   "refresh windows");
    if (geometry.channels == 0)
        errors.add("need at least one channel");
    if (geometry.banksPerRank == 0)
        errors.add("need at least one bank per rank");
    if (geometry.rowsPerBank == 0)
        errors.add("need at least one row per bank");

    schemes::addSpecErrors(
        schemes::bankSpec(scheme, geometry.rowsPerBank, timing), errors);
    return errors.finish();
}

SystemResult
runSystem(const SystemConfig &config,
          const workloads::WorkloadSpec &workload,
          const CancelToken *cancel)
{
    const Result<void> valid = config.validate();
    GRAPHENE_CHECK(valid.ok(),
                   "system: invalid config (validate() before "
                   "running): %s", valid.error().describe().c_str());
    GRAPHENE_CHECK(workload.coreParams.size() >= config.numCores,
                   "workload %s supplies %zu cores, need %u",
                   workload.name.c_str(), workload.coreParams.size(),
                   config.numCores);

    dram::AddressMapper mapper(config.geometry);

    // One controller per channel; fault model per its banks.
    mem::ControllerConfig ctrl_config;
    ctrl_config.timing = config.timing;
    ctrl_config.banksPerRank = config.geometry.banksPerRank;
    ctrl_config.rowsPerBank = config.geometry.rowsPerBank;
    ctrl_config.scheme = config.scheme;
    ctrl_config.fault =
        mem::faultConfigFor(config.scheme, config.physicalThreshold);
    ctrl_config.obs = config.obs;

    if (config.obs)
        config.obs->metrics.beginWindows(config.timing.cREFW());

    std::vector<std::unique_ptr<mem::ChannelController>> channels;
    for (unsigned c = 0; c < config.geometry.channels; ++c) {
        mem::ControllerConfig per_channel = ctrl_config;
        per_channel.scheme.seed = config.seed + 17 * c;
        per_channel.obsBankBase = c * config.geometry.banksPerRank;
        channels.push_back(
            std::make_unique<mem::ChannelController>(per_channel));
    }

    std::vector<workloads::SyntheticGenerator> cores;
    cores.reserve(config.numCores);
    for (unsigned i = 0; i < config.numCores; ++i)
        cores.emplace_back(workload.coreParams[i], mapper, i,
                           config.seed + i);

    const Cycle horizon{static_cast<std::uint64_t>(
        static_cast<double>(config.timing.cREFW().value()) *
        config.windows)};

    // Event heap of (next issue cycle, core id); each core keeps up
    // to memoryLevelParallelism requests in flight, each modelled as
    // an independent closed loop drawing from the core's generator.
    // An event is packed as cycle << core_bits | core, which orders
    // like the pair, so one compare picks the smaller child without a
    // branch. Cycles are clamped to the horizon: every event there is
    // dropped unrun, so their order does not matter. A served
    // request's successor replaces it at the top and sifts down once;
    // an event at the horizon is popped. Equal keys are the same
    // event, so any min-heap pops the same sequence.
    const int core_bits = std::bit_width(config.numCores - 1);
    GRAPHENE_CHECK(horizon.value() <= ~std::uint64_t{0} >> core_bits,
                   "system: span too long for the event heap");
    const auto event = [&](Cycle cycle, unsigned core) {
        return std::min(cycle, horizon).value() << core_bits | core;
    };
    std::vector<std::uint64_t> heap;
    const unsigned mlp = std::max(1u, config.memoryLevelParallelism);
    // Pushed in ascending order, which is already a min-heap.
    for (unsigned slot = 0; slot < mlp; ++slot)
        for (unsigned i = 0; i < config.numCores; ++i)
            heap.push_back(event(Cycle{slot}, i));
    const auto replaceTop = [&heap](std::uint64_t e) {
        const std::size_t n = heap.size();
        std::size_t hole = 0;
        for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
            if (child + 1 < n)
                child += heap[child + 1] < heap[child];
            if (e <= heap[child])
                break;
            heap[hole] = heap[child];
            hole = child;
        }
        heap[hole] = e;
    };

    SystemResult result;
    result.coreRequests.assign(config.numCores, 0);

    std::uint32_t tick = 0;
    while (!heap.empty()) {
        if ((++tick & 0x1fffu) == 0 && cancel && cancel->cancelled()) {
            result.cancelled = true;
            return result;
        }
        const Cycle issue{heap.front() >> core_bits};
        const auto core = static_cast<unsigned>(
            heap.front() & ((std::uint64_t{1} << core_bits) - 1));
        if (issue >= horizon) {
            const std::uint64_t last = heap.back();
            heap.pop_back();
            if (!heap.empty())
                replaceTop(last);
            continue;
        }

        const workloads::CoreAccess access = cores[core].next();
        const dram::DecodedAddr d = mapper.decode(access.addr);
        auto &channel = *channels[d.channel];
        const mem::ServiceResult served =
            channel.access(issue, d.bank, d.row, access.isWrite);

        ++result.coreRequests[core];
        replaceTop(event(served.completion + access.gap, core));
    }

    std::uint64_t victim_rows = 0;
    std::uint64_t acts = 0;
    std::uint64_t requests = 0;
    std::uint64_t flips = 0;
    double hit_rate = 0.0;
    for (auto &channel : channels) {
        channel->catchUpRefresh(horizon);
        victim_rows += channel->victimRowsRefreshed();
        acts += channel->actCount().value();
        requests += channel->requestCount();
        hit_rate += channel->rowHitRate();
        for (unsigned b = 0; b < config.geometry.banksPerRank; ++b)
            flips += channel->rank().faultModel(b).flips().size();
    }

    if (config.obs)
        config.obs->metrics.finish();

    result.requests = requests;
    result.acts = acts;
    result.victimRowsRefreshed = victim_rows;
    result.bitFlips = flips;
    result.rowHitRate = hit_rate / config.geometry.channels;
    result.windows = config.windows;
    result.refreshEnergyOverhead = model::EnergyModel::refreshOverhead(
        victim_rows, config.geometry.totalBanks(), config.windows);
    return result;
}

} // namespace sim
} // namespace graphene
