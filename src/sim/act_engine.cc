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

    schemes::addSpecErrors(
        schemes::bankSpec(scheme, rowsPerBank, timing), errors);
    return errors.finish();
}

namespace {

dram::FaultConfig
faultConfigFor(const ActEngineConfig &config)
{
    dram::FaultConfig fault =
        mem::faultConfigFor(config.scheme, config.physicalThreshold);
    const unsigned radius = std::max(config.faultRadius, 1u);
    fault.mu.assign(radius, 0.0);
    for (unsigned i = 1; i <= radius; ++i)
        fault.mu[i - 1] = 1.0 / (static_cast<double>(i) * i);
    fault.remap = config.remap;
    fault.remapSeed = config.remapSeed;
    return fault;
}

const ActEngineConfig &
checked(const ActEngineConfig &config)
{
    const Result<void> valid = config.validate();
    GRAPHENE_CHECK(valid.ok(),
                   "act engine: invalid config (validate() before "
                   "running): %s", valid.error().describe().c_str());
    return config;
}

} // namespace

ActStreamEngine::ActStreamEngine(const ActEngineConfig &config,
                                 workloads::ActPattern &pattern)
    : _config(checked(config)), _pattern(pattern),
      _rank(mem::ProtectedRank::Owner::ActEngine, config.timing, 1,
            config.rowsPerBank, faultConfigFor(config), config.scheme,
            config.obs, 0),
      _horizon{static_cast<std::uint64_t>(
          static_cast<double>(config.timing.cREFW().value()) *
          config.windows)},
      _spacing(static_cast<double>(config.timing.cRC().value()) /
               config.actRate)
{
    if (_config.obs)
        _config.obs->metrics.beginWindows(_config.timing.cREFW());
}

bool
ActStreamEngine::step()
{
    if (_done)
        return false;

    // REF, and the victim refreshes it triggers, may push the bank's
    // ACT availability past the nominal slot: catch up twice.
    dram::Bank &bank = _rank.dram().bank(0);
    Cycle cycle{static_cast<std::uint64_t>(_nextAct)};
    for (int pass = 0; pass < 2 && cycle < _horizon; ++pass) {
        _rank.catchUpRefresh(cycle);
        cycle = bank.earliestAct(cycle);
    }
    if (cycle >= _horizon) {
        _done = true;
        return false;
    }

    const Row row = _pattern.next();
    bank.issueAct(cycle, row);
    bank.issuePrecharge(bank.earliestPrecharge(cycle));
    _rank.activate(cycle, 0, row);

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
    ActEngineResult result;
    result.acts = actsSoFar();
    result.nrrEvents = nrrEventsSoFar();
    result.refreshCommands = refreshCommandsSoFar();
    result.victimRowsRefreshed = victimRowsRefreshedSoFar();
    result.bitFlips = bitFlipsSoFar();
    result.peakDisturbance = _rank.dram().faultModel(0).peakDisturbance();
    result.windows = _config.windows;
    result.refreshEnergyOverhead = model::EnergyModel::refreshOverhead(
        result.victimRowsRefreshed, 1, _config.windows);
    return result;
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
    _rank.saveState(w);
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
    _rank.restoreState(r);
    if (r.failed())
        return;
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
