#include "sim/act_engine.hh"

#include <algorithm>
#include <utility>

#include "ckpt/io.hh"
#include "common/logging.hh"
#include "model/energy.hh"

namespace graphene {
namespace sim {

Result<void>
ActEngineConfig::validate() const
{
    ErrorCollector errors(ErrorCode::Config, "act engine config");
    if (!(actRate > 0.0 && actRate <= 1.0))
        errors.add("act engine: rate must lie in (0, 1]");
    if (!(windows > 0.0))
        errors.add("act engine: need a positive duration");
    if (rowsPerBank == 0)
        errors.add("act engine: need at least one row per bank");

    schemes::SchemeSpec spec = scheme;
    spec.rowsPerBank = rowsPerBank;
    spec.timing = timing;
    const Result<void> spec_valid =
        schemes::validateSchemeSpec(spec);
    if (!spec_valid.ok()) {
        errors.add("scheme spec: " + spec_valid.error().message());
        for (const auto &note : spec_valid.error().notes())
            errors.add("scheme spec: " + note);
    }
    return errors.finish();
}

namespace {

dram::FaultConfig
faultConfigFor(const ActEngineConfig &config)
{
    dram::FaultConfig fault;
    fault.rowHammerThreshold = static_cast<double>(
        config.physicalThreshold ? config.physicalThreshold
                                 : config.scheme.rowHammerThreshold);
    const unsigned radius = std::max(config.faultRadius, 1u);
    fault.mu.assign(radius, 0.0);
    for (unsigned i = 1; i <= radius; ++i)
        fault.mu[i - 1] = 1.0 / (static_cast<double>(i) * i);
    fault.remap = config.remap;
    fault.remapSeed = config.remapSeed;
    return fault;
}

schemes::SchemeSpec
specFor(const ActEngineConfig &config)
{
    schemes::SchemeSpec spec = config.scheme;
    spec.rowsPerBank = config.rowsPerBank;
    spec.timing = config.timing;
    return spec;
}

std::unique_ptr<ProtectionScheme>
buildScheme(const ActEngineConfig &config)
{
    const Result<void> valid = config.validate();
    GRAPHENE_CHECK(valid.ok(),
                   "act engine: invalid config (validate() before "
                   "running): %s", valid.error().describe().c_str());
    auto built = schemes::makeScheme(specFor(config));
    GRAPHENE_CHECK(built.ok(),
                   "act engine: invalid scheme spec: %s",
                   built.error().describe().c_str());
    return std::move(built).value();
}

} // namespace

ActStreamEngine::ActStreamEngine(const ActEngineConfig &config,
                                 workloads::ActPattern &pattern)
    : _config(config), _pattern(pattern), _spec(specFor(config)),
      _rank(config.timing, 1, config.rowsPerBank,
            faultConfigFor(config)),
      _scheme(buildScheme(config)),
      _probe(obs::probeFor(config.obs, 0)),
      _horizon{static_cast<std::uint64_t>(
          static_cast<double>(config.timing.cREFW().value()) *
          config.windows)},
      _spacing(static_cast<double>(config.timing.cRC().value()) /
               config.actRate)
{
    if (_config.obs)
        _config.obs->metrics.beginWindows(_config.timing.cREFW());
    if (_scheme)
        _scheme->attachProbe(_probe);
}

void
ActStreamEngine::applyAction(Cycle cycle)
{
    if (_action.empty())
        return;
    for (Row aggressor : _action.nrrAggressors) {
        _rank.issueNrr(cycle, 0, aggressor, _spec.blastRadius);
        ++_result.nrrEvents;
    }
    if (!_action.victimRows.empty()) {
        std::vector<Row> rows;
        rows.reserve(_action.victimRows.size());
        for (Row r : _action.victimRows)
            if (r.value() < _config.rowsPerBank)
                rows.push_back(r);
        _rank.refreshVictimRows(cycle, 0, rows);
        if (!rows.empty())
            _probe.count(cycle, "engine.victim_rows",
                         static_cast<double>(rows.size()));
    }
    _action.clear();
}

void
ActStreamEngine::catchUpRefresh(Cycle cycle)
{
    while (_rank.nextRefreshDue() <= cycle) {
        const Cycle due = _rank.nextRefreshDue();
        _rank.issueRefresh(due);
        ++_result.refreshCommands;
        _probe.emit(due, obs::EventKind::PeriodicRef);
        _probe.count(due, "engine.refs");
        if (_scheme) {
            _action.clear();
            _scheme->onRefresh(due, _action);
            applyAction(due);
        }
    }
}

bool
ActStreamEngine::step()
{
    if (_done)
        return false;

    Cycle cycle{static_cast<std::uint64_t>(_nextAct)};
    if (cycle >= _horizon) {
        _done = true;
        return false;
    }
    catchUpRefresh(cycle);

    // Victim refreshes and REF may have pushed the bank's ACT
    // availability past the nominal slot.
    dram::Bank &bank = _rank.bank(0);
    cycle = bank.earliestAct(cycle);
    if (cycle >= _horizon) {
        _done = true;
        return false;
    }
    catchUpRefresh(cycle);
    cycle = bank.earliestAct(cycle);
    if (cycle >= _horizon) {
        _done = true;
        return false;
    }

    const Row row = _pattern.next();
    bank.issueAct(cycle, row);
    bank.issuePrecharge(bank.earliestPrecharge(cycle));
    ++_result.acts;
    _probe.emit(cycle, obs::EventKind::Act, row);
    _probe.count(cycle, "engine.acts");
    _rank.notifyActivate(cycle, 0, row);

    if (_scheme) {
        _action.clear();
        _scheme->onActivate(cycle, row, _action);
        applyAction(cycle);
    }

    _nextAct = static_cast<double>(cycle.value()) + _spacing;
    return true;
}

bool
ActStreamEngine::runUntil(Cycle stop)
{
    while (!_done && nextActCycle() < stop && step()) {
    }
    // The next ACT slot lying at/past the horizon means the stream is
    // over, but only a step() call latches _done — take it eagerly
    // (it issues nothing) so quantum-driven callers whose stop clamps
    // to the horizon still observe completion.
    if (!_done && nextActCycle() >= _horizon)
        step();
    return _done;
}

ActEngineResult
ActStreamEngine::run()
{
    while (step()) {
    }
    return finish();
}

bool
ActStreamEngine::runCancellable(const CancelToken &cancel)
{
    std::uint32_t tick = 0;
    while (step()) {
        if ((++tick & 0x1fffu) == 0 && cancel.cancelled())
            return false;
    }
    return true;
}

ActEngineResult
ActStreamEngine::finish()
{
    if (_config.obs)
        _config.obs->metrics.finish();
    _result.victimRowsRefreshed = _rank.nrrRowCount();
    _result.bitFlips = _rank.faultModel(0).flips().size();
    _result.peakDisturbance = _rank.faultModel(0).peakDisturbance();
    _result.windows = _config.windows;
    _result.refreshEnergyOverhead =
        model::EnergyModel::refreshOverhead(
            _result.victimRowsRefreshed, 1, _config.windows);
    return _result;
}

std::uint64_t
ActStreamEngine::victimRowsRefreshedSoFar() const
{
    return _rank.nrrRowCount();
}

std::uint64_t
ActStreamEngine::bitFlipsSoFar() const
{
    return _rank.faultModel(0).flips().size();
}

std::uint64_t
ActStreamEngine::configFingerprint() const
{
    // Encode every semantic knob with the checkpoint encoder itself
    // (fixed widths, exact double bits) and digest the bytes. The
    // obs sink is deliberately absent: tracing never changes results.
    ckpt::Writer enc;
    enc.str("graphene-act-engine-v1");
    enc.u32(static_cast<std::uint32_t>(_config.scheme.kind));
    enc.u64(_config.scheme.rowHammerThreshold);
    enc.u64(_config.scheme.rowsPerBank);
    enc.u32(_config.scheme.blastRadius);
    enc.u32(_config.scheme.grapheneK);
    enc.boolean(_config.scheme.cbtAssumeContiguous);
    enc.u64(_config.scheme.seed);
    _config.timing.save(enc);
    enc.u64(_config.rowsPerBank);
    enc.f64(_config.actRate);
    enc.f64(_config.windows);
    enc.u32(_config.faultRadius);
    enc.u64(_config.physicalThreshold);
    enc.boolean(_config.remap);
    enc.u64(_config.remapSeed);
    enc.str(_pattern.name());
    return ckpt::fnv1a(enc.data().data(), enc.size());
}

void
ActStreamEngine::saveState(ckpt::Writer &w) const
{
    w.f64(_nextAct);
    w.boolean(_done);
    w.u64(_result.acts);
    w.u64(_result.nrrEvents);
    w.u64(_result.refreshCommands);
    _rank.saveState(w);
    w.boolean(_scheme != nullptr);
    if (_scheme)
        _scheme->saveState(w);
    _pattern.saveState(w);
    w.boolean(_config.obs != nullptr);
    if (_config.obs)
        _config.obs->metrics.saveState(w);
}

void
ActStreamEngine::restoreState(ckpt::Reader &r)
{
    _nextAct = r.f64();
    _done = r.boolean();
    _result = ActEngineResult{};
    _result.acts = r.u64();
    _result.nrrEvents = r.u64();
    _result.refreshCommands = r.u64();
    _rank.restoreState(r);
    const bool has_scheme = r.boolean();
    if (has_scheme != (_scheme != nullptr)) {
        // The fingerprint covers the scheme kind, so a mismatch here
        // means hand-edited bytes; reject rather than crash.
        r.fail();
        return;
    }
    if (_scheme) {
        _scheme->restoreState(r);
        _scheme->attachProbe(_probe);
    }
    _pattern.restoreState(r);
    const bool has_obs = r.boolean();
    if (has_obs && _config.obs) {
        _config.obs->metrics.restoreState(r);
    } else if (has_obs) {
        // Saved with a sink, resuming without one: drain the bytes so
        // finish() still validates, and drop the series.
        obs::MetricsRegistry().restoreState(r);
    } else if (_config.obs) {
        // Saved without a sink, resuming with one: the series starts
        // at the resume point; totals-based artifacts still match.
        _config.obs->metrics.beginWindows(_config.timing.cREFW());
    }
    _action.clear();
}

std::vector<std::uint8_t>
ActStreamEngine::saveCheckpoint() const
{
    ckpt::Writer w;
    saveState(w);
    return ckpt::encode(configFingerprint(), w.data());
}

Result<void>
ActStreamEngine::restoreCheckpoint(
    const std::vector<std::uint8_t> &bytes)
{
    Result<ckpt::Blob> blob =
        ckpt::decode(bytes, configFingerprint());
    if (!blob.ok())
        return blob.error();
    ckpt::Reader r(blob.value().payload);
    restoreState(r);
    return r.finish();
}

ActEngineResult
runActStream(const ActEngineConfig &config,
             workloads::ActPattern &pattern)
{
    return ActStreamEngine(config, pattern).run();
}

} // namespace sim
} // namespace graphene
