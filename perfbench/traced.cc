/**
 * @file
 * The traced run: each population's batch rebuilt from the public
 * per-layer calls, with a span around every call of interest.
 *
 *  - sys-normal: runSystem's event loop (SyntheticGenerator::next,
 *    AddressMapper::decode, ChannelController::access) over the same
 *    cells runOverheadGrid executes;
 *  - act-attack / act-lowtrh: ActStreamEngine::step's sequence (REF
 *    catch-up, Bank timing, ActPattern::next, Rank::notifyActivate,
 *    ProtectionScheme::onActivate/onRefresh, victim refreshes) — so
 *    every scheme is timed on the recorded attack stream, paced at
 *    tRC with REF every tREFI and its tRFC blackout — plus a pass of
 *    the real engine timing step() itself;
 *  - serve-soak: the driver's quantum/checkpoint loop over
 *    Session::runQuantum/checkpoint, a standalone engine per session
 *    that checkpoints, restores into a fresh engine and continues,
 *    and the drain-time telemetry calls.
 *
 * Spans are kept in memory (per-unit recorders, so pool workers never
 * share one), sampled at a fixed stride for per-ACT calls and taken
 * on every call for rare ones, and written out when the batch ends.
 * No span nests inside another, so a layer's self time is its spans'
 * duration. A replica whose counters differ from the untraced batch
 * is a mismatch: the trace must describe the same program.
 */

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <sstream>

#include "bench.hh"
#include "common/json.hh"
#include "exp/pool.hh"
#include "mem/controller.hh"
#include "obs/export.hh"
#include "obs/rollup.hh"
#include "serve/act_source.hh"
#include "workloads/synthetic.hh"

namespace perfbench {

namespace fs = std::filesystem;
using graphene::Cycle;
using graphene::RefreshAction;
using graphene::Row;

namespace {

/** Per-ACT calls are timed on one step (or access) in kStride. */
constexpr unsigned kStride = 16;
/** Spans kept per unit; aggregates always cover every sample. */
constexpr std::size_t kSpansPerUnit = 4096;

enum Layer : unsigned
{
    GenNext,
    GenSetup,
    PatternNext,
    Decode,
    RankSetup,
    FaultActivate,
    BankTiming,
    Refresh,
    VictimRefresh,
    Access,
    ControllerSetup,
    SchemeActivate,                 // + scheme index (4 slots)
    SchemeRefresh = SchemeActivate + 4,
    SchemeSetup = SchemeRefresh + 4,
    EngineStep = SchemeSetup + 4,
    EngineSetup,
    CkptSave,
    CkptRestore,
    Quantum,
    Checkpoint,
    Telemetry,
    kLayers
};

const char *
layerName(unsigned layer)
{
    static const char *kNames[] = {
        "workloads.gen_next",  "workloads.gen_setup",
        "workloads.pattern_next", "dram.decode",
        "dram.rank_setup",     "dram.fault_activate",
        "dram.bank_timing",    "dram.refresh",
        "dram.victim_refresh", "mem.access",
        "mem.controller_setup",
        "schemes.PARA.activate", "schemes.CBT.activate",
        "schemes.TWiCe.activate", "schemes.Graphene.activate",
        "schemes.PARA.refresh", "schemes.CBT.refresh",
        "schemes.TWiCe.refresh", "schemes.Graphene.refresh",
        "schemes.PARA.setup",  "schemes.CBT.setup",
        "schemes.TWiCe.setup", "schemes.Graphene.setup",
        "sim.engine_step",     "sim.engine_setup",
        "ckpt.save",           "ckpt.restore",
        "serve.quantum",       "serve.checkpoint",
        "obs.telemetry"};
    static_assert(sizeof(kNames) / sizeof(*kNames) == kLayers);
    return kNames[layer];
}

/** Index of @p kind in schemes::evaluatedSchemes(). */
unsigned
schemeIndex(schemes::SchemeKind kind)
{
    const auto kinds = schemes::evaluatedSchemes();
    return static_cast<unsigned>(
        std::find(kinds.begin(), kinds.end(), kind) - kinds.begin());
}

struct Span
{
    std::uint32_t unit;
    std::uint32_t layer;
    double startNs;
    double durNs;
};

/** One unit's in-memory span store and per-layer aggregates. */
class Recorder
{
  public:
    Recorder(Clock::time_point epoch, std::uint32_t unit)
        : _epoch(epoch), _unit(unit)
    {
    }

    /** True on every kStride-th call: time this one. */
    bool sample() { return (++_tick % kStride) == 0; }

    void add(unsigned layer, Clock::time_point a, Clock::time_point b)
    {
        add(layer, a, nsBetween(a, b));
    }

    /** A span of @p ns starting at @p a (summed pieces of a call). */
    void add(unsigned layer, Clock::time_point a, double ns)
    {
        _sumNs[layer] += ns;
        ++_count[layer];
        if (_spans.size() < kSpansPerUnit)
            _spans.push_back({_unit, layer, nsBetween(_epoch, a), ns});
    }

    double sumNs(unsigned layer) const { return _sumNs[layer]; }
    std::uint64_t count(unsigned layer) const { return _count[layer]; }
    const std::vector<Span> &spans() const { return _spans; }

    void merge(const Recorder &other)
    {
        for (unsigned l = 0; l < kLayers; ++l) {
            _sumNs[l] += other._sumNs[l];
            _count[l] += other._count[l];
        }
        _spans.insert(_spans.end(), other._spans.begin(),
                      other._spans.end());
    }

  private:
    Clock::time_point _epoch;
    std::uint32_t _unit;
    std::uint64_t _tick = 0;
    std::array<double, kLayers> _sumNs{};
    std::array<std::uint64_t, kLayers> _count{};
    std::vector<Span> _spans;
};

/** Time @p body as one span of @p layer (always, no sampling). */
template <class Body>
void
timed(Recorder &rec, unsigned layer, Body &&body)
{
    const auto a = Clock::now();
    body();
    rec.add(layer, a, Clock::now());
}

double
meanNs(const Recorder &rec, unsigned layer)
{
    return rec.count(layer) ? rec.sumNs(layer) /
                                  static_cast<double>(rec.count(layer))
                            : 0.0;
}

void
writeSpans(const std::string &path, const Recorder &all)
{
    std::ofstream os(path, std::ios::trunc);
    os << "unit\tlayer\tstart_ns\tdur_ns\n";
    for (const Span &s : all.spans())
        os << s.unit << '\t' << layerName(s.layer) << '\t'
           << static_cast<std::uint64_t>(s.startNs) << '\t'
           << static_cast<std::uint64_t>(s.durNs) << '\n';
}

void
mismatch(TraceResult &out, const std::string &what)
{
    ++out.mismatches;
    if (out.notes.size() < 20)
        out.notes.push_back(what);
}

/**
 * Run body(i) for every i in [0, n) on a pool of @p jobs, one
 * parallelFor per stage of @p stage cells — the runner's schedule,
 * whose stage barriers the untraced batch pays too.
 */
void
runStages(unsigned jobs, std::size_t n, std::size_t stage,
          const std::function<void(std::size_t)> &body)
{
    exp::Pool pool(jobs);
    for (std::size_t first = 0; first < n; first += stage)
        pool.parallelFor(std::min(stage, n - first),
                         [&](std::size_t i) { body(first + i); });
}

// ---- sys-normal ------------------------------------------------------

struct SysCell
{
    sim::SystemConfig config; ///< Seed and scheme already resolved.
    const workloads::WorkloadSpec *workload = nullptr;
};

struct SysCounters
{
    std::uint64_t acts = 0;
    std::uint64_t requests = 0;
    std::uint64_t victims = 0;
    std::uint64_t flips = 0;
    double rowHits = 0.0;
    std::vector<std::uint64_t> coreRequests;
};

/** runSystem (src/sim/system.cc), call for call, with spans. */
SysCounters
replicateSystem(const SysCell &cell, Recorder &rec)
{
    const sim::SystemConfig &config = cell.config;
    // runOverheadGrid's pre-flight check and runSystem's own.
    schemes::SchemeSpec spec = config.scheme;
    spec.rowsPerBank = config.geometry.rowsPerBank;
    spec.timing = config.timing;
    (void)schemes::validateSchemeSpec(spec).ok();
    (void)config.validate().ok();
    graphene::dram::AddressMapper mapper(config.geometry);

    // The dense fault-model construction every rank pays, timed on a
    // standalone rank with the channel's configuration.
    timed(rec, RankSetup, [&] {
        const auto c = channelConfig(config, 0);
        graphene::dram::Rank rank(c.timing, c.banksPerRank,
                                  c.rowsPerBank, c.fault);
    });

    std::vector<std::unique_ptr<graphene::mem::ChannelController>>
        channels;
    for (unsigned c = 0; c < config.geometry.channels; ++c)
        timed(rec, ControllerSetup, [&] {
            channels.push_back(
                std::make_unique<graphene::mem::ChannelController>(
                    channelConfig(config, c)));
        });

    std::vector<workloads::SyntheticGenerator> cores;
    cores.reserve(config.numCores);
    for (unsigned i = 0; i < config.numCores; ++i)
        timed(rec, GenSetup, [&] {
            cores.emplace_back(cell.workload->coreParams[i], mapper, i,
                               config.seed + i);
        });

    const Cycle horizon{static_cast<std::uint64_t>(
        static_cast<double>(config.timing.cREFW().value()) *
        config.windows)};
    using Event = std::pair<Cycle, unsigned>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        queue;
    const unsigned mlp = std::max(1u, config.memoryLevelParallelism);
    for (unsigned i = 0; i < config.numCores; ++i)
        for (unsigned slot = 0; slot < mlp; ++slot)
            queue.emplace(slot, i);

    SysCounters out;
    out.coreRequests.assign(config.numCores, 0);
    while (!queue.empty()) {
        const auto [issue, core] = queue.top();
        queue.pop();
        if (issue >= horizon)
            continue;
        workloads::CoreAccess access;
        graphene::dram::DecodedAddr d;
        graphene::mem::ServiceResult served;
        if (rec.sample()) {
            const auto t0 = Clock::now();
            access = cores[core].next();
            const auto t1 = Clock::now();
            d = mapper.decode(access.addr);
            const auto t2 = Clock::now();
            served = channels[d.channel]->access(issue, d.bank, d.row,
                                                 access.isWrite);
            const auto t3 = Clock::now();
            rec.add(GenNext, t0, t1);
            rec.add(Decode, t1, t2);
            rec.add(Access, t2, t3);
        } else {
            access = cores[core].next();
            d = mapper.decode(access.addr);
            served = channels[d.channel]->access(issue, d.bank, d.row,
                                                 access.isWrite);
        }
        ++out.coreRequests[core];
        queue.emplace(served.completion + access.gap, core);
    }

    for (auto &channel : channels) {
        channel->catchUpRefresh(horizon);
        out.victims += channel->victimRowsRefreshed();
        out.acts += channel->actCount().value();
        out.requests += channel->requestCount();
        out.rowHits += channel->rowHitRate() *
                       static_cast<double>(channel->requestCount());
        for (unsigned b = 0; b < config.geometry.banksPerRank; ++b)
            out.flips += channel->rank().faultModel(b).flips().size();
    }
    return out;
}

void
traceSys(const Shape &shape, const Batch &batch, Clock::time_point epoch,
         Recorder &all, TraceResult &out)
{
    const sim::SystemConfig base = sysConfig(shape);
    const auto suite = sysSuite(shape);
    // runOverheadGrid's cell order: every baseline, then workload x
    // scheme.
    std::vector<SysCell> cells;
    for (const auto &w : suite) {
        SysCell cell{base, &w};
        cell.config.scheme.kind = schemes::SchemeKind::None;
        cell.config.seed = sysTrafficSeed(base, w);
        cells.push_back(cell);
    }
    for (const auto &w : suite)
        for (const auto kind : schemes::evaluatedSchemes()) {
            SysCell cell{base, &w};
            cell.config.scheme.kind = kind;
            cell.config.seed = sysTrafficSeed(base, w);
            cells.push_back(cell);
        }

    std::vector<Recorder> recs;
    for (std::size_t i = 0; i < cells.size(); ++i)
        recs.emplace_back(epoch, static_cast<std::uint32_t>(i));
    std::vector<SysCounters> counters(cells.size());
    // Stage one holds the baselines, stage two every protected cell.
    const auto start = Clock::now();
    exp::Pool pool(shape.jobs);
    pool.parallelFor(suite.size(), [&](std::size_t i) {
        counters[i] = replicateSystem(cells[i], recs[i]);
    });
    pool.parallelFor(cells.size() - suite.size(), [&](std::size_t i) {
        const std::size_t c = suite.size() + i;
        counters[c] = replicateSystem(cells[c], recs[c]);
    });
    out.tracedSeconds = secondsSince(start);

    Recorder merged(epoch, 0);
    double hits = 0.0, requests = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        merged.merge(recs[i]);
        hits += counters[i].rowHits;
        requests += static_cast<double>(counters[i].requests);
        ++out.units;
        if (i >= batch.units.size()) {
            mismatch(out, "sys cell " + std::to_string(i) +
                              " missing from the untraced batch");
            continue;
        }
        exp::CellKey key;
        exp::CellResult r;
        if (!exp::parseCellRecordLine(batch.units[i].record, key, r) ||
            r.stats.acts != counters[i].acts ||
            r.stats.requests != counters[i].requests ||
            r.stats.victimRowsRefreshed != counters[i].victims ||
            r.stats.bitFlips != counters[i].flips ||
            r.stats.coreRequests != counters[i].coreRequests)
            mismatch(out, "sys replica differs on " + batch.units[i].id);
    }
    const double n = static_cast<double>(cells.size());
    out.metrics["workloads.gen_next_ns"] = meanNs(merged, GenNext);
    out.metrics["workloads.gen_setup_ms"] = merged.sumNs(GenSetup) / n / 1e6;
    out.metrics["dram.decode_ns"] = meanNs(merged, Decode);
    out.metrics["dram.rank_setup_ms"] = merged.sumNs(RankSetup) / n / 1e6;
    out.metrics["mem.access_ns"] = meanNs(merged, Access);
    out.metrics["mem.controller_setup_ms"] =
        merged.sumNs(ControllerSetup) / n / 1e6;
    out.metrics["mem.row_hit_ratio"] = requests > 0 ? hits / requests : 0;
    all.merge(merged);
}

// ---- act-attack / act-lowtrh ----------------------------------------

struct ActCell
{
    sim::ActEngineConfig config; ///< Scheme kind resolved.
    std::size_t patternIndex = 0;
    std::uint64_t patternSeed = 0;
};

struct ActCounters
{
    std::uint64_t acts = 0;
    std::uint64_t nrr = 0;
    std::uint64_t refs = 0;
    std::uint64_t victims = 0;
    std::uint64_t flips = 0;
    bool operator==(const ActCounters &) const = default;
};

/** The fault configuration ActStreamEngine derives from its config. */
graphene::dram::FaultConfig
engineFault(const sim::ActEngineConfig &config)
{
    graphene::dram::FaultConfig fault;
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

/** ActStreamEngine::step (src/sim/act_engine.cc), call for call. */
class EngineReplica
{
  public:
    EngineReplica(const sim::ActEngineConfig &config,
                  workloads::ActPattern &pattern, Recorder &rec)
        : _config(config), _pattern(pattern), _rec(rec),
          _spec(config.scheme),
          _horizon{static_cast<std::uint64_t>(
              static_cast<double>(config.timing.cREFW().value()) *
              config.windows)},
          _spacing(static_cast<double>(config.timing.cRC().value()) /
                   config.actRate),
          _schemeIndex(schemeIndex(config.scheme.kind))
    {
        _spec.rowsPerBank = config.rowsPerBank;
        _spec.timing = config.timing;
        timed(rec, RankSetup, [&] {
            _rank = std::make_unique<graphene::dram::Rank>(
                config.timing, 1, config.rowsPerBank,
                engineFault(config));
        });
        // The cell's pre-flight check and the engine's own config
        // check precede the build; all three are scheme set-up.
        timed(rec, SchemeSetup + _schemeIndex, [&] {
            (void)schemes::validateSchemeSpec(_spec).ok();
            (void)config.validate().ok();
            _scheme = std::move(schemes::makeScheme(_spec)).value();
        });
    }

    bool step()
    {
        if (_done)
            return false;
        _sampled = _rec.sample();
        Cycle cycle{static_cast<std::uint64_t>(_nextAct)};
        if (cycle >= _horizon)
            return finishRun();
        catchUpRefresh(cycle);

        // Unsampled steps read no clock at all.
        const auto stamp = [this] {
            return _sampled ? Clock::now() : Clock::time_point{};
        };
        graphene::dram::Bank &bank = _rank->bank(0);
        auto t0 = stamp();
        cycle = bank.earliestAct(cycle);
        double bank_ns = nsBetween(t0, stamp());
        if (cycle >= _horizon)
            return finishRun();
        catchUpRefresh(cycle);
        t0 = stamp();
        cycle = bank.earliestAct(cycle);
        bank_ns += nsBetween(t0, stamp());
        if (cycle >= _horizon)
            return finishRun();

        Row row;
        if (_sampled) {
            const auto a = Clock::now();
            row = _pattern.next();
            const auto b = Clock::now();
            bank.issueAct(cycle, row);
            bank.issuePrecharge(bank.earliestPrecharge(cycle));
            const auto c = Clock::now();
            _rank->notifyActivate(cycle, 0, row);
            const auto d = Clock::now();
            _rec.add(PatternNext, a, b);
            _rec.add(BankTiming, b, bank_ns + nsBetween(b, c));
            _rec.add(FaultActivate, c, d);
        } else {
            row = _pattern.next();
            bank.issueAct(cycle, row);
            bank.issuePrecharge(bank.earliestPrecharge(cycle));
            _rank->notifyActivate(cycle, 0, row);
        }
        ++_counters.acts;

        if (_scheme) {
            _action.clear();
            if (_sampled) {
                timed(_rec, SchemeActivate + _schemeIndex, [&] {
                    _scheme->onActivate(cycle, row, _action);
                });
            } else {
                _scheme->onActivate(cycle, row, _action);
            }
            applyAction(cycle);
        }
        _nextAct = static_cast<double>(cycle.value()) + _spacing;
        return true;
    }

    ActCounters finish()
    {
        _counters.victims = _rank->nrrRowCount();
        _counters.flips = _rank->faultModel(0).flips().size();
        return _counters;
    }

  private:
    bool finishRun()
    {
        _done = true;
        return false;
    }

    void applyAction(Cycle cycle)
    {
        if (_action.empty())
            return;
        for (Row aggressor : _action.nrrAggressors) {
            timed(_rec, VictimRefresh, [&] {
                _rank->issueNrr(cycle, 0, aggressor, _spec.blastRadius);
            });
            ++_counters.nrr;
        }
        if (!_action.victimRows.empty()) {
            std::vector<Row> rows;
            rows.reserve(_action.victimRows.size());
            for (Row r : _action.victimRows)
                if (r.value() < _config.rowsPerBank)
                    rows.push_back(r);
            timed(_rec, VictimRefresh, [&] {
                _rank->refreshVictimRows(cycle, 0, rows);
            });
        }
        _action.clear();
    }

    void catchUpRefresh(Cycle cycle)
    {
        while (_rank->nextRefreshDue() <= cycle) {
            const Cycle due = _rank->nextRefreshDue();
            timed(_rec, Refresh, [&] { _rank->issueRefresh(due); });
            ++_counters.refs;
            if (_scheme) {
                _action.clear();
                timed(_rec, SchemeRefresh + _schemeIndex, [&] {
                    _scheme->onRefresh(due, _action);
                });
                applyAction(due);
            }
        }
    }

    sim::ActEngineConfig _config;
    workloads::ActPattern &_pattern;
    Recorder &_rec;
    schemes::SchemeSpec _spec;
    std::unique_ptr<graphene::dram::Rank> _rank;
    std::unique_ptr<graphene::ProtectionScheme> _scheme;
    Cycle _horizon;
    double _spacing;
    unsigned _schemeIndex;
    RefreshAction _action;
    double _nextAct = 0.0;
    bool _done = false;
    bool _sampled = false;
    ActCounters _counters;
};

/** Time the real engine: its constructor and (sampled) step(). */
ActCounters
timeRealEngine(const sim::ActEngineConfig &config,
               workloads::ActPattern &pattern, Recorder &rec)
{
    std::unique_ptr<sim::ActStreamEngine> engine;
    timed(rec, EngineSetup, [&] {
        engine = std::make_unique<sim::ActStreamEngine>(config, pattern);
    });
    for (;;) {
        bool more;
        if (rec.sample()) {
            const auto a = Clock::now();
            more = engine->step();
            rec.add(EngineStep, a, Clock::now());
        } else {
            more = engine->step();
        }
        if (!more)
            break;
    }
    const sim::ActEngineResult r = engine->finish();
    return {r.acts, r.nrrEvents, r.refreshCommands,
            r.victimRowsRefreshed, r.bitFlips};
}

void
traceAct(const Shape &shape, const Batch &batch, Clock::time_point epoch,
         Recorder &all, TraceResult &out)
{
    const sim::ActEngineConfig base = actConfig(shape);
    const auto kinds = schemes::evaluatedSchemes();
    // runAdversarialGrid's cell order: per suite seed, scheme-major.
    std::vector<ActCell> cells;
    for (const std::uint64_t seed : actSuiteSeeds(shape)) {
        const auto probe = workloads::patterns::adversarialSuite(
            base.rowsPerBank, seed);
        for (const auto kind : kinds)
            for (std::size_t pi = 0; pi < probe.size(); ++pi) {
                ActCell cell{base, pi,
                             actPatternSeed(base, pi, probe[pi]->name(),
                                            seed)};
                cell.config.scheme.kind = kind;
                cells.push_back(cell);
            }
    }

    std::vector<Recorder> recs;
    for (std::size_t i = 0; i < cells.size(); ++i)
        recs.emplace_back(epoch, static_cast<std::uint32_t>(i));
    std::vector<ActCounters> replica(cells.size()), real(cells.size());
    // One stage per suite seed, as runAdversarialGrid submits them.
    const std::size_t stage = cells.size() / actSuiteSeeds(shape).size();
    const auto start = Clock::now();
    runStages(shape.jobs, cells.size(), stage, [&](std::size_t i) {
        const ActCell &cell = cells[i];
        auto suite = workloads::patterns::adversarialSuite(
            cell.config.rowsPerBank, cell.patternSeed);
        EngineReplica engine(cell.config, *suite[cell.patternIndex],
                             recs[i]);
        while (engine.step()) {
        }
        replica[i] = engine.finish();
    });
    out.tracedSeconds = secondsSince(start);
    // The real engine over the same streams, for step() itself.
    runStages(shape.jobs, cells.size(), stage, [&](std::size_t i) {
        const ActCell &cell = cells[i];
        auto suite = workloads::patterns::adversarialSuite(
            cell.config.rowsPerBank, cell.patternSeed);
        real[i] = timeRealEngine(cell.config, *suite[cell.patternIndex],
                                 recs[i]);
    });

    Recorder merged(epoch, 0);
    std::array<double, 4> victims{}, acts{}, cellCount{};
    for (std::size_t i = 0; i < cells.size(); ++i) {
        merged.merge(recs[i]);
        const unsigned s = schemeIndex(cells[i].config.scheme.kind);
        victims[s] += static_cast<double>(replica[i].victims);
        acts[s] += static_cast<double>(replica[i].acts);
        cellCount[s] += 1.0;
        ++out.units;
        exp::CellKey key;
        exp::CellResult r;
        const bool parsed =
            i < batch.units.size() &&
            exp::parseCellRecordLine(batch.units[i].record, key, r);
        if (!parsed || !(replica[i] == real[i]) ||
            r.stats.acts != replica[i].acts ||
            r.stats.victimRowsRefreshed != replica[i].victims ||
            r.stats.bitFlips != replica[i].flips)
            mismatch(out, "act replica differs on cell " +
                              std::to_string(i));
    }
    const double n = static_cast<double>(cells.size());
    out.metrics["workloads.pattern_next_ns"] = meanNs(merged, PatternNext);
    out.metrics["dram.rank_setup_ms"] = merged.sumNs(RankSetup) / n / 1e6;
    out.metrics["dram.fault_activate_ns"] = meanNs(merged, FaultActivate);
    out.metrics["dram.bank_timing_ns"] = meanNs(merged, BankTiming);
    out.metrics["dram.refresh_ns"] = meanNs(merged, Refresh);
    out.metrics["dram.victim_refresh_ns"] = meanNs(merged, VictimRefresh);
    for (std::size_t s = 0; s < kinds.size(); ++s) {
        const std::string p =
            "schemes." + schemes::schemeKindName(kinds[s]) + ".";
        out.metrics[p + "activate_ns"] = meanNs(merged, SchemeActivate + s);
        out.metrics[p + "refresh_ns"] = meanNs(merged, SchemeRefresh + s);
        out.metrics[p + "setup_ms"] =
            cellCount[s] ? merged.sumNs(SchemeSetup + s) / cellCount[s] / 1e6
                         : 0.0;
        out.metrics[p + "victim_rows_per_mact"] =
            acts[s] ? victims[s] / acts[s] * 1e6 : 0.0;
    }
    out.metrics["sim.engine_step_ns"] = meanNs(merged, EngineStep);
    out.metrics["sim.engine_setup_ms"] = merged.sumNs(EngineSetup) / n / 1e6;
    all.merge(merged);
}

// ---- serve-soak ------------------------------------------------------

/** One session's standalone engine: run in quanta, checkpoint every
 *  ckptEvery quanta, restore into a fresh engine and continue. */
struct CkptProbe
{
    std::unique_ptr<serve::ActSource> source;
    std::unique_ptr<serve::StreamPattern> pattern;
    std::unique_ptr<sim::ActStreamEngine> engine;

    void build(const serve::SessionSpec &spec)
    {
        source = serve::makeSource(spec.source, spec.rowsPerBank).value();
        pattern = std::make_unique<serve::StreamPattern>(*source,
                                                         spec.chunkRows);
        engine = std::make_unique<sim::ActStreamEngine>(
            spec.engineConfig(), *pattern);
    }
};

/** ActStreamEngine::runUntil, with step() timed. */
void
runUntil(sim::ActStreamEngine &engine, Cycle stop, Recorder &rec)
{
    const auto timedStep = [&] {
        if (!rec.sample())
            return engine.step();
        const auto a = Clock::now();
        const bool more = engine.step();
        rec.add(EngineStep, a, Clock::now());
        return more;
    };
    while (!engine.done() && engine.nextActCycle() < stop && timedStep()) {
    }
    if (!engine.done() && engine.nextActCycle() >= engine.horizon())
        timedStep();
}

void
traceServe(const Shape &shape, const Batch &batch,
           const std::string &untraced_dir, const std::string &out_dir,
           Clock::time_point epoch, Recorder &all, TraceResult &out)
{
    const auto specs = serveSpecs(shape);
    const serve::DriverOptions opts = serveOptions(shape, out_dir);
    fs::remove_all(out_dir);

    std::vector<Recorder> recs;
    for (std::size_t i = 0; i < specs.size(); ++i)
        recs.emplace_back(epoch, static_cast<std::uint32_t>(i));
    std::vector<std::unique_ptr<serve::Session>> sessions;
    std::vector<unsigned> quanta(specs.size(), 0);
    std::vector<char> ckptFailed(specs.size(), 0);
    std::vector<std::vector<double>> quantumMs(specs.size());
    const auto start = Clock::now();
    for (const auto &spec : specs) {
        sessions.push_back(std::make_unique<serve::Session>(
            spec, out_dir, out_dir + "/ckpt"));
        if (!sessions.back()->start().ok())
            mismatch(out, "session " + spec.id + " failed to start");
    }
    // ServeDriver::runPhase: one quantum per turn, checkpoint every
    // ckptEveryQuanta quanta while work remains.
    exp::Pool(shape.jobs).runResumable(sessions.size(), [&](std::size_t i) {
        serve::Session::QuantumOutcome outcome;
        const auto a = Clock::now();
        outcome = sessions[i]->runQuantum(opts.quantumCycles);
        const auto b = Clock::now();
        recs[i].add(Quantum, a, b);
        quantumMs[i].push_back(nsBetween(a, b) / 1e6);
        ++quanta[i];
        if (outcome != serve::Session::QuantumOutcome::Again)
            return false;
        if (opts.ckptEveryQuanta != 0 &&
            quanta[i] % opts.ckptEveryQuanta == 0)
            timed(recs[i], Checkpoint, [&] {
                if (!sessions[i]->checkpoint().ok())
                    ckptFailed[i] = 1;
            });
        return true;
    });
    out.tracedSeconds = secondsSince(start);
    for (std::size_t i = 0; i < specs.size(); ++i)
        if (ckptFailed[i])
            mismatch(out, "session " + specs[i].id + " checkpoint failed");

    // Telemetry as the driver drains it, over the replica's sessions.
    std::string rollupBytes, promBytes;
    timed(recs[0], Telemetry, [&] {
        graphene::obs::Rollup rollup;
        graphene::obs::ServiceStatus status;
        status.quantumCycles = opts.quantumCycles;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            auto series = graphene::obs::readServeJsonl(
                sessions[i]->jsonlPath(), specs[i].id);
            if (series.ok())
                rollup.add(std::move(series).value());
            graphene::obs::SessionStatus s;
            s.id = specs[i].id;
            s.scheme = schemes::schemeKindName(specs[i].scheme.kind);
            s.source = specs[i].source.describe();
            s.chunkRows = specs[i].chunkRows;
            s.state = "done";
            s.lastWindow = sessions[i]->windowsEmitted();
            s.jsonlLines = sessions[i]->linesEmitted();
            s.bufferedRows = sessions[i]->bufferedRows();
            status.sessions.push_back(s);
        }
        status.finalize();
        std::ostringstream r, p;
        rollup.writeJsonl(r);
        graphene::obs::writeExposition(p, rollup, status);
        rollupBytes = r.str();
        promBytes = p.str();
    });
    if (graphene::obs::kEnabled &&
        (rollupBytes != readFile(untraced_dir + "/rollup.jsonl") ||
         promBytes != readFile(untraced_dir + "/metrics.prom")))
        mismatch(out, "replica telemetry differs from the service's");

    // Standalone engines: checkpoint, restore, continue, then compare
    // with each session's summary line.
    std::vector<std::uint64_t> ckptBytes(specs.size(), 0);
    std::vector<std::string> summary(specs.size());
    exp::Pool(shape.jobs).parallelFor(specs.size(), [&](std::size_t i) {
        const serve::SessionSpec &spec = specs[i];
        Recorder &rec = recs[i];
        std::vector<CkptProbe> probes(1);
        timed(rec, EngineSetup, [&] { probes.back().build(spec); });
        unsigned q = 0;
        for (;;) {
            sim::ActStreamEngine &engine = *probes.back().engine;
            const std::uint64_t stop =
                std::min(engine.horizon().value(),
                         engine.nextActCycle().value() + opts.quantumCycles);
            runUntil(engine, Cycle{stop}, rec);
            if (engine.done())
                break;
            if (++q % opts.ckptEveryQuanta != 0)
                continue;
            std::vector<std::uint8_t> bytes;
            timed(rec, CkptSave, [&] { bytes = engine.saveCheckpoint(); });
            ckptBytes[i] += bytes.size();
            probes.emplace_back();
            probes.back().build(spec);
            bool restored = false;
            timed(rec, CkptRestore, [&] {
                restored =
                    probes.back().engine->restoreCheckpoint(bytes).ok();
            });
            if (!restored ||
                probes.back().engine->saveCheckpoint() != bytes)
                summary[i] = "restore did not round-trip";
        }
        if (!summary[i].empty())
            return;
        const sim::ActEngineResult r = probes.back().engine->finish();
        summary[i] = graphene::strprintf(
            "acts=%llu victims=%llu nrr=%llu refs=%llu flips=%llu",
            static_cast<unsigned long long>(r.acts),
            static_cast<unsigned long long>(r.victimRowsRefreshed),
            static_cast<unsigned long long>(r.nrrEvents),
            static_cast<unsigned long long>(r.refreshCommands),
            static_cast<unsigned long long>(r.bitFlips));
    });

    Recorder merged(epoch, 0);
    double saves = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        merged.merge(recs[i]);
        out.quantumMs.insert(out.quantumMs.end(), quantumMs[i].begin(),
                             quantumMs[i].end());
        saves += static_cast<double>(recs[i].count(CkptSave));
        ++out.units;
        const std::string jsonl = readFile(sessions[i]->jsonlPath());
        const Unit *unit = nullptr;
        for (const Unit &u : batch.units)
            if (u.id == specs[i].id)
                unit = &u;
        if (unit == nullptr || unit->record != jsonl) {
            mismatch(out, "session " + specs[i].id +
                              " JSONL differs from the untraced soak");
            continue;
        }
        // The summary line of the session artifact.
        const std::string line =
            jsonl.substr(jsonl.rfind('\n', jsonl.size() - 2) + 1);
        const auto get = [&](const char *k) {
            return static_cast<unsigned long long>(
                graphene::json::getU64(line, k).value_or(~0ULL));
        };
        const std::string expect = graphene::strprintf(
            "acts=%llu victims=%llu nrr=%llu refs=%llu flips=%llu",
            get("acts"), get("victim_rows_refreshed"), get("nrr_events"),
            get("refresh_commands"), get("bit_flips"));
        if (summary[i] != expect)
            mismatch(out, "session " + specs[i].id + " engine replica: " +
                              summary[i] + " vs " + expect);
    }
    const double n = static_cast<double>(specs.size());
    out.metrics["sim.engine_step_ns"] = meanNs(merged, EngineStep);
    out.metrics["sim.engine_setup_ms"] = merged.sumNs(EngineSetup) / n / 1e6;
    out.metrics["ckpt.save_ms"] = meanNs(merged, CkptSave) / 1e6;
    out.metrics["ckpt.restore_ms"] = meanNs(merged, CkptRestore) / 1e6;
    std::uint64_t bytes = 0;
    for (const auto b : ckptBytes)
        bytes += b;
    out.metrics["ckpt.bytes"] = saves ? static_cast<double>(bytes) / saves : 0;
    out.metrics["serve.checkpoint_ms"] = meanNs(merged, Checkpoint) / 1e6;
    out.metrics["obs.telemetry_ms"] = merged.sumNs(Telemetry) / 1e6;
    all.merge(merged);
}

} // namespace

TraceResult
runTraced(const Shape &shape, const std::string &out_dir)
{
    TraceResult out;
    const std::string untraced_dir = out_dir + "/untraced";
    const Batch batch = runBatch(shape, untraced_dir);
    for (const Unit &u : batch.units)
        if (u.failed)
            mismatch(out, "untraced unit " + u.id + " failed: " + u.note);
    // The overhead's base is a second, warm batch: the first one also
    // pays the process's cold start, which the replica does not.
    const Batch warm = runBatch(shape, out_dir + "/warm");
    out.untracedSeconds = warm.wallSeconds;
    if (warm.capacityMs > 0)
        out.metrics["exp.pool_busy_ratio"] = warm.busyMs / warm.capacityMs;

    const auto epoch = Clock::now();
    Recorder all(epoch, 0);
    switch (shape.population) {
      case Population::SysNormal:
        traceSys(shape, batch, epoch, all, out);
        break;
      case Population::ActAttack:
      case Population::ActLowTrh:
        traceAct(shape, batch, epoch, all, out);
        break;
      case Population::ServeSoak:
        traceServe(shape, batch, untraced_dir, out_dir + "/replica",
                   epoch, all, out);
        break;
    }
    out.spans = all.spans().size();
    writeSpans(out_dir + "/spans." +
                   std::string(populationName(shape.population)) + ".tsv",
               all);
    return out;
}

} // namespace perfbench
