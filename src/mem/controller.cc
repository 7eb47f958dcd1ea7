#include "mem/controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace graphene {
namespace mem {

ChannelController::ChannelController(const ControllerConfig &config)
    : _config(config), _cycles(config.timing.inCycles()),
      _rank(config.timing, config.banksPerRank, config.rowsPerBank,
            config.fault),
      _consecutiveHits(config.banksPerRank, 0),
      _refreshDebt(config.banksPerRank, Cycle{})
{
    schemes::SchemeSpec spec = config.scheme;
    spec.rowsPerBank = config.rowsPerBank;
    spec.timing = config.timing;
    _schemes.reserve(config.banksPerRank);
    _probes.reserve(config.banksPerRank);
    for (unsigned b = 0; b < config.banksPerRank; ++b) {
        schemes::SchemeSpec bank_spec = spec;
        bank_spec.seed = spec.seed * 1000003ULL + b;
        auto built = schemes::makeScheme(bank_spec);
        GRAPHENE_CHECK(built.ok(),
                       "controller: invalid scheme spec: %s",
                       built.error().describe().c_str());
        _schemes.push_back(std::move(built).value());
        _probes.push_back(
            obs::probeFor(config.obs, config.obsBankBase + b));
        if (_schemes.back())
            _schemes.back()->attachProbe(_probes.back());
    }
}

ProtectionScheme *
ChannelController::scheme(unsigned bank)
{
    GRAPHENE_CHECK(bank < _schemes.size(),
                   "bank index %u out of range", bank);
    return _schemes[bank].get();
}

void
ChannelController::catchUpRefresh(Cycle cycle)
{
    while (_rank.nextRefreshDue() <= cycle) {
        const Cycle due = _rank.nextRefreshDue();
        _rank.issueRefresh(due);
        _probes[0].emit(due, obs::EventKind::PeriodicRef);
        _probes[0].count(due, "mem.refs");
        // Schemes that act on REF cadence (PRoHIT's victim refresh,
        // TWiCe's pruning interval) observe the command here.
        for (unsigned b = 0; b < _schemes.size(); ++b) {
            if (!_schemes[b])
                continue;
            _scratchAction.clear();
            _schemes[b]->onRefresh(due, _scratchAction);
            applyAction(due, b, _scratchAction);
        }
    }
}

void
ChannelController::applyAction(Cycle cycle, unsigned bank,
                               const RefreshAction &action)
{
    if (action.empty())
        return;
    for (Row aggressor : action.nrrAggressors) {
        _rank.issueNrr(cycle, bank, aggressor,
                       _config.scheme.blastRadius);
    }
    if (!action.nrrAggressors.empty())
        _probes[bank].count(
            cycle, "mem.nrr_events",
            static_cast<double>(action.nrrAggressors.size()));
    if (!action.victimRows.empty()) {
        std::vector<Row> rows;
        rows.reserve(action.victimRows.size());
        for (Row r : action.victimRows)
            if (r.value() < _config.rowsPerBank)
                rows.push_back(r);
        if (!rows.empty())
            _probes[bank].count(cycle, "mem.victim_rows",
                                static_cast<double>(rows.size()));
        const unsigned chunk = _config.refreshChunkRows;
        if (chunk == 0 || rows.size() <= chunk) {
            _rank.refreshVictimRows(cycle, bank, rows);
        } else {
            // Large burst: refresh logically now, owe the busy time
            // and pay it down in chunks before later accesses.
            _refreshDebt[bank] +=
                _rank.refreshVictimRowsDeferred(bank, rows);
        }
    }
}

ServiceResult
ChannelController::access(Cycle issue, unsigned bank, Row row,
                          bool is_write)
{
    catchUpRefresh(issue);

    dram::Bank &b = _rank.bank(bank);

    // Pay down one chunk of outstanding victim-refresh debt before
    // serving demand work (the interleaved drain of a large burst).
    if (_refreshDebt[bank] > Cycle{}) {
        const Cycle chunk = _cycles.cRC * _config.refreshChunkRows;
        const Cycle pay = std::min(_refreshDebt[bank], chunk);
        const Cycle start = b.earliestAct(issue);
        b.block(start, start + pay);
        _refreshDebt[bank] -= pay;
        _probes[bank].emit(start, obs::EventKind::QueueStall,
                           Row::invalid(),
                           static_cast<std::uint32_t>(pay.value()));
        _probes[bank].count(start, "mem.stall_cycles",
                            static_cast<double>(pay.value()));
    }

    ServiceResult result;
    ++_requests;
    _probes[bank].count(issue, "mem.requests");

    const bool hit = b.isOpen() && b.openRow() == row;
    if (hit && _consecutiveHits[bank] < _config.pageHitLimit) {
        ++_consecutiveHits[bank];
        ++_rowHits;
        result.rowHit = true;
        _probes[bank].count(issue, "mem.row_hits");
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
            act_at = _rank.earliestFawAct(act_at);
            b.issueAct(act_at, row);
            _rank.recordFawAct(act_at);
            ++_acts;
            result.didAct = true;
            _probes[bank].emit(act_at, obs::EventKind::Act, row);
            _probes[bank].count(act_at, "mem.acts");

            _rank.notifyActivate(act_at, bank, row);
            if (_schemes[bank]) {
                _scratchAction.clear();
                _schemes[bank]->onActivate(act_at, row,
                                           _scratchAction);
                applyAction(act_at, bank, _scratchAction);
            }
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
