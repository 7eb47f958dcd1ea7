#include "mem/protected_rank.hh"

#include <algorithm>

#include "ckpt/io.hh"
#include "common/logging.hh"

namespace graphene {
namespace mem {

dram::FaultConfig
faultConfigFor(const schemes::SchemeSpec &scheme,
               std::uint64_t physical_threshold)
{
    dram::FaultConfig fault;
    fault.rowHammerThreshold = static_cast<double>(
        physical_threshold ? physical_threshold
                           : scheme.rowHammerThreshold);
    return fault;
}

ProtectedRank::ProtectedRank(Owner owner,
                             const dram::TimingParams &timing,
                             unsigned banks, std::uint64_t rows_per_bank,
                             const dram::FaultConfig &fault,
                             const schemes::SchemeSpec &scheme,
                             obs::Sink *sink, unsigned obs_bank_base)
    : _blastRadius(scheme.blastRadius),
      _rank(timing, banks, rows_per_bank, fault),
      _debt(owner == Owner::Controller ? banks : 0, Cycle{})
{
    static constexpr MetricNames kEngine{"engine.acts", "engine.refs",
                                         "engine.victim_rows", nullptr};
    static constexpr MetricNames kController{
        "mem.acts", "mem.refs", "mem.victim_rows", "mem.nrr_events"};
    _names = owner == Owner::ActEngine ? &kEngine : &kController;

    const schemes::SchemeSpec spec =
        schemes::bankSpec(scheme, rows_per_bank, timing);
    _schemes.reserve(banks);
    _probes.reserve(banks);
    for (unsigned b = 0; b < banks; ++b) {
        schemes::SchemeSpec bank_spec = spec;
        if (owner == Owner::Controller)
            bank_spec.seed = spec.seed * 1000003ULL + b;
        auto built = schemes::makeScheme(bank_spec);
        GRAPHENE_CHECK(built.ok(),
                       "protected rank: invalid scheme spec: %s",
                       built.error().describe().c_str());
        _schemes.push_back(std::move(built).value());
        _probes.push_back(obs::probeFor(sink, obs_bank_base + b));
        if (_schemes.back())
            _schemes.back()->attachProbe(_probes.back());
    }
}

void
ProtectedRank::activate(Cycle cycle, unsigned bank, Row row)
{
    ++_acts;
    _probes[bank].emit(cycle, obs::EventKind::Act, row);
    _probes[bank].count(cycle, _names->acts);
    _rank.notifyActivate(cycle, bank, row);
    if (ProtectionScheme *scheme = _schemes[bank].get()) {
        _action.clear();
        scheme->onActivate(cycle, row, _action);
        applyAction(cycle, bank);
    }
}

void
ProtectedRank::catchUpRefresh(Cycle cycle)
{
    while (_rank.nextRefreshDue() <= cycle) {
        const Cycle due = _rank.nextRefreshDue();
        _rank.issueRefresh(due);
        _probes[0].emit(due, obs::EventKind::PeriodicRef);
        _probes[0].count(due, _names->refs);
        // Schemes that act on REF cadence (PRoHIT's victim refresh,
        // TWiCe's pruning interval) observe the command here.
        for (unsigned b = 0; b < _schemes.size(); ++b) {
            if (!_schemes[b])
                continue;
            _action.clear();
            _schemes[b]->onRefresh(due, _action);
            applyAction(due, b);
        }
    }
}

void
ProtectedRank::applyAction(Cycle cycle, unsigned bank)
{
    if (_action.empty())
        return;
    for (Row aggressor : _action.nrrAggressors)
        _rank.issueNrr(cycle, bank, aggressor, _blastRadius);
    const std::size_t nrr = _action.nrrAggressors.size();
    _nrrEvents += nrr;
    if (nrr != 0 && _names->nrrEvents)
        _probes[bank].count(cycle, _names->nrrEvents,
                            static_cast<double>(nrr));
    std::vector<Row> &rows = _action.victimRows;
    if (rows.empty())
        return;
    // A range scheme's rows past the bank's end refresh nothing.
    std::erase_if(rows, [this](Row r) {
        return r.value() >= _rank.rowsPerBank();
    });
    if (!rows.empty())
        _probes[bank].count(cycle, _names->victimRows,
                            static_cast<double>(rows.size()));
    // Controllers interleave a large burst (CBT's range refreshes)
    // with demand traffic: refresh now, pay the busy time later.
    if (!_debt.empty() && rows.size() > 1)
        _debt[bank] += _rank.refreshVictimRowsDeferred(bank, rows);
    else
        _rank.refreshVictimRows(cycle, bank, rows);
}

Cycle
ProtectedRank::takeDebt(unsigned bank, Cycle most)
{
    if (_debt.empty())
        return Cycle{};
    const Cycle pay = std::min(_debt[bank], most);
    _debt[bank] -= pay;
    return pay;
}

ProtectionScheme *
ProtectedRank::scheme(unsigned bank)
{
    GRAPHENE_CHECK(bank < _schemes.size(),
                   "bank index %u out of range", bank);
    return _schemes[bank].get();
}

void
ProtectedRank::saveState(ckpt::Writer &w) const
{
    w.u64(_acts);
    w.u64(_nrrEvents);
    w.u64(_rank.refreshCount());
    _rank.saveState(w);
    for (const auto &scheme : _schemes) {
        w.boolean(scheme != nullptr);
        if (scheme)
            scheme->saveState(w);
    }
    for (const Cycle debt : _debt)
        w.u64(debt.value());
}

void
ProtectedRank::restoreState(ckpt::Reader &r)
{
    _acts = r.u64();
    _nrrEvents = r.u64();
    const std::uint64_t refreshes = r.u64();
    _rank.restoreState(r);
    // The REF count is saved twice, and the fingerprint covers the
    // scheme kind: a mismatch in either means hand-edited bytes.
    if (refreshes != _rank.refreshCount()) {
        r.fail();
        return;
    }
    for (unsigned b = 0; b < _schemes.size(); ++b) {
        if (r.boolean() != (_schemes[b] != nullptr)) {
            r.fail();
            return;
        }
        if (_schemes[b]) {
            _schemes[b]->restoreState(r);
            _schemes[b]->attachProbe(_probes[b]);
        }
    }
    for (Cycle &debt : _debt)
        debt = Cycle{r.u64()};
}

} // namespace mem
} // namespace graphene
