#include "sim/replay.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"

namespace graphene {
namespace sim {

ReplayResult
replayTrace(const ReplayConfig &config,
            const std::vector<workloads::TraceRecord> &records)
{
    const dram::AddressMapper mapper(config.geometry);

    mem::ControllerConfig ctrl;
    ctrl.timing = config.timing;
    ctrl.banksPerRank = config.geometry.banksPerRank;
    ctrl.rowsPerBank = config.geometry.rowsPerBank;
    ctrl.scheme = config.scheme;
    ctrl.fault = mem::faultConfigFor(config.scheme, config.physicalThreshold);

    // Split the trace per channel, preserving issue order.
    const unsigned channels = config.geometry.channels;
    std::vector<std::vector<mem::MemRequest>> requests(channels);
    std::vector<std::vector<unsigned>> banks(channels);
    std::vector<std::vector<Row>> rows(channels);
    for (const auto &r : records) {
        const dram::DecodedAddr d = mapper.decode(r.addr);
        requests[d.channel].push_back(
            {r.addr, r.isWrite, r.coreId, r.issue});
        banks[d.channel].push_back(d.bank);
        rows[d.channel].push_back(d.row);
    }

    ReplayResult result;
    double latency_sum = 0.0;
    std::uint64_t hits = 0;
    for (unsigned c = 0; c < channels; ++c) {
        mem::ControllerConfig per_channel = ctrl;
        per_channel.scheme.seed = config.scheme.seed + 31 * c;
        mem::QueuedChannelController controller(
            per_channel, config.policy, config.batchCap);
        const auto served =
            controller.run(requests[c], banks[c], rows[c]);
        const mem::ReplayStats stats = controller.stats(served);

        result.requests += stats.requests;
        latency_sum += stats.meanLatency *
                       static_cast<double>(stats.requests);
        hits += static_cast<std::uint64_t>(
            stats.rowHitRate * static_cast<double>(stats.requests) +
            0.5);
        result.maxLatency =
            std::max(result.maxLatency, stats.maxLatency);
        result.victimRowsRefreshed += stats.victimRowsRefreshed;
        result.bitFlips += stats.bitFlips;
    }
    if (result.requests) {
        result.meanLatency =
            latency_sum / static_cast<double>(result.requests);
        result.rowHitRate = static_cast<double>(hits) /
                            static_cast<double>(result.requests);
    }
    return result;
}

} // namespace sim
} // namespace graphene
