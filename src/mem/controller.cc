#include "mem/controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace graphene {
namespace mem {

ChannelController::ChannelController(const ControllerConfig &config)
    : _config(config), _cycles(config.timing.inCycles()),
      _rank(ProtectedRank::Owner::Controller, config.timing,
            config.banksPerRank, config.rowsPerBank, config.fault,
            config.scheme, config.obs, config.obsBankBase),
      _consecutiveHits(config.banksPerRank, 0)
{
}

ServiceResult
ChannelController::access(Cycle issue, unsigned bank, Row row,
                          bool is_write)
{
    catchUpRefresh(issue);

    dram::Bank &b = rank().bank(bank);
    const obs::Probe probe = _rank.probe(bank);

    // Pay down one row of outstanding victim-refresh debt before
    // serving demand work (the interleaved drain of a large burst).
    const Cycle pay = _rank.takeDebt(bank, _cycles.cRC);
    if (pay > Cycle{}) {
        const Cycle start = b.earliestAct(issue);
        b.block(start, start + pay);
        probe.emit(start, obs::EventKind::QueueStall, Row::invalid(),
                   static_cast<std::uint32_t>(pay.value()));
        probe.count(start, "mem.stall_cycles",
                    static_cast<double>(pay.value()));
    }

    ServiceResult result;
    ++_requests;
    probe.count(issue, "mem.requests");

    const bool hit = b.isOpen() && b.openRow() == row;
    if (hit && _consecutiveHits[bank] < _config.pageHitLimit) {
        ++_consecutiveHits[bank];
        ++_rowHits;
        result.rowHit = true;
        probe.count(issue, "mem.row_hits");
    } else {
        if (b.isOpen())
            b.issuePrecharge(b.earliestPrecharge(issue));
        _consecutiveHits[bank] = hit ? 1 : 0;

        // A victim refresh requested by the scheme closes the bank
        // again (NRR operates on a precharged bank), so the row must
        // be re-activated — and that re-activation is itself an ACT
        // the scheme observes. For any sane tracking threshold the
        // loop terminates immediately; the cap catches pathological
        // configurations.
        unsigned attempts = 0;
        while (!b.isOpen()) {
            GRAPHENE_CHECK(++attempts <= 16,
                           "livelock re-activating row %u", row.value());
            Cycle act_at = b.earliestAct(issue);
            catchUpRefresh(act_at);
            act_at = b.earliestAct(act_at);
            // The rank-level four-activation window gates ACTs that
            // the per-bank timings alone would allow.
            act_at = rank().earliestFawAct(act_at);
            b.issueAct(act_at, row);
            rank().recordFawAct(act_at);
            result.didAct = true;
            _rank.activate(act_at, bank, row);
        }
    }

    Cycle rw_at = b.earliestReadWrite(issue);
    rw_at = std::max(rw_at, _busFreeAt);
    const Cycle done = b.issueReadWrite(rw_at);
    _busFreeAt = rw_at + _cycles.cBL;
    result.completion = done;
    (void)is_write;
    return result;
}

double
ChannelController::rowHitRate() const
{
    return _requests
               ? static_cast<double>(_rowHits) /
                     static_cast<double>(_requests)
               : 0.0;
}

} // namespace mem
} // namespace graphene
