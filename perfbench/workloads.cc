/**
 * @file
 * The benchmark's four workloads and their untraced batches.
 *
 * Every batch is closed-loop: one exp::Runner (grids) or
 * serve::ServeDriver (soak) with a fixed worker count, each worker
 * taking the next cell or quantum as soon as its current one ends.
 * The exp result cache is off, so every cell executes.
 */

#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "common/cancel.hh"
#include "common/json.hh"
#include "exp/fingerprint.hh"
#include "mem/controller.hh"
#include "obs/rollup.hh"
#include "sim/experiment.hh"
#include "workloads/profiles.hh"

namespace perfbench {

namespace fs = std::filesystem;

const char *
populationName(Population p)
{
    switch (p) {
      case Population::SysNormal:
        return "sys-normal";
      case Population::ActAttack:
        return "act-attack";
      case Population::ActLowTrh:
        return "act-lowtrh";
      case Population::ServeSoak:
        return "serve-soak";
    }
    return "?";
}

bool
parsePopulation(const std::string &name, Population &out)
{
    for (const Population p :
         {Population::SysNormal, Population::ActAttack,
          Population::ActLowTrh, Population::ServeSoak}) {
        if (name == populationName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

// ---- workload definitions -------------------------------------------

sim::SystemConfig
sysConfig(const Shape &shape)
{
    sim::SystemConfig config; // Table III: 16 cores x 4 channels
    config.windows = shape.full ? 0.01 : 0.004;
    config.seed = shape.seed;
    config.scheme.rowHammerThreshold = 50000;
    return config;
}

std::vector<workloads::WorkloadSpec>
sysSuite(const Shape &shape)
{
    const unsigned cores = sim::SystemConfig{}.numCores;
    if (shape.full)
        return workloads::normalWorkloads(cores);
    return {workloads::homogeneous("mcf", cores)};
}

sim::ActEngineConfig
actConfig(const Shape &shape)
{
    sim::ActEngineConfig config;
    const bool low = shape.population == Population::ActLowTrh;
    config.scheme.rowHammerThreshold = low ? 1562 : 50000;
    if (low)
        config.windows = shape.full ? 0.06 : 0.01;
    else
        config.windows = shape.full ? 0.25 : 0.04;
    return config;
}

std::vector<std::uint64_t>
actSuiteSeeds(const Shape &shape)
{
    // Several suite seeds per batch, so a grid has enough cells for
    // a tail percentile; all derive from the run's seed.
    const unsigned count = shape.full ? 4 : 1;
    std::vector<std::uint64_t> seeds;
    for (unsigned k = 0; k < count; ++k)
        seeds.push_back(shape.seed + 1000 * k);
    return seeds;
}

std::vector<serve::SessionSpec>
serveSpecs(const Shape &shape)
{
    // graphene_serve's default tenant mix (tools/serve): schemes and
    // pattern families interleaved, threshold 50K, full rate.
    static const char *kFamilies[] = {"uniform", "s1", "s3", "s4",
                                      "worst"};
    const auto kinds = schemes::evaluatedSchemes();
    const unsigned sessions = shape.full ? 8 : 4;
    std::vector<serve::SessionSpec> specs;
    for (unsigned i = 0; i < sessions; ++i) {
        serve::SessionSpec spec;
        spec.id = graphene::strprintf("t%02u", i);
        spec.scheme.kind = kinds[i % kinds.size()];
        spec.scheme.rowHammerThreshold = 50000;
        spec.scheme.seed = shape.seed + i;
        spec.source.kind = serve::SourceSpec::Kind::Pattern;
        spec.source.family = kFamilies[i % 5];
        spec.source.param = 10;
        spec.source.seed = shape.seed + i;
        spec.windows = shape.full ? 0.25 : 0.1;
        specs.push_back(spec);
    }
    return specs;
}

serve::DriverOptions
serveOptions(const Shape &shape, const std::string &out_dir)
{
    serve::DriverOptions options;
    options.jobs = shape.jobs;
    options.ckptEveryQuanta = 8;
    options.outDir = out_dir;
    options.telemetry = true;
    return options;
}

// ---- fingerprint replicas -------------------------------------------
// Field for field the private traffic digests of sim/experiment.cc,
// from which its cells derive their seeds (the traced run needs them).

namespace {

void
addTimingFields(exp::Fingerprint &fp, const graphene::dram::TimingParams &t)
{
    fp.field("tCK", t.tCK.value())
        .field("tREFI", t.tREFI.value())
        .field("tRFC", t.tRFC.value())
        .field("tRC", t.tRC.value())
        .field("tRCD", t.tRCD.value())
        .field("tRP", t.tRP.value())
        .field("tCL", t.tCL.value())
        .field("tRAS", t.tRAS.value())
        .field("tBL", t.tBL.value())
        .field("tREFW", t.tREFW.value())
        .field("tFAW", t.tFAW.value());
}

void
addSystemTrafficFields(exp::Fingerprint &fp, const sim::SystemConfig &config,
                       const workloads::WorkloadSpec &workload)
{
    fp.field("numCores", static_cast<std::uint64_t>(config.numCores))
        .field("windows", config.windows)
        .field("memoryLevelParallelism",
               static_cast<std::uint64_t>(config.memoryLevelParallelism))
        .field("seed", config.seed)
        .field("physicalThreshold", config.physicalThreshold);
    const graphene::dram::Geometry &g = config.geometry;
    fp.field("channels", static_cast<std::uint64_t>(g.channels))
        .field("ranksPerChannel",
               static_cast<std::uint64_t>(g.ranksPerChannel))
        .field("banksPerRank", static_cast<std::uint64_t>(g.banksPerRank))
        .field("rowsPerBank", g.rowsPerBank)
        .field("bytesPerRow", g.bytesPerRow);
    addTimingFields(fp, config.timing);
    fp.field("workload", workload.name)
        .field("coreCount",
               static_cast<std::uint64_t>(workload.coreParams.size()));
    for (const auto &p : workload.coreParams) {
        fp.field("app", p.name)
            .field("sequentialFraction", p.sequentialFraction)
            .field("zipfTheta", p.zipfTheta)
            .field("workingSetRows", p.workingSetRows)
            .field("meanGapCycles", p.meanGapCycles)
            .field("writeFraction", p.writeFraction);
    }
}

void
addActTrafficFields(exp::Fingerprint &fp, const sim::ActEngineConfig &config,
                    std::size_t pattern_index,
                    const std::string &pattern_name, std::uint64_t suite_seed)
{
    fp.field("rowsPerBank", config.rowsPerBank)
        .field("actRate", config.actRate)
        .field("windows", config.windows)
        .field("faultRadius",
               static_cast<std::uint64_t>(config.faultRadius))
        .field("physicalThreshold", config.physicalThreshold)
        .field("remap", config.remap)
        .field("remapSeed", config.remapSeed);
    addTimingFields(fp, config.timing);
    fp.field("patternIndex", static_cast<std::uint64_t>(pattern_index))
        .field("patternName", pattern_name)
        .field("suiteSeed", suite_seed);
}

} // namespace

std::uint64_t
sysTrafficSeed(const sim::SystemConfig &config,
               const workloads::WorkloadSpec &workload)
{
    exp::Fingerprint fp;
    fp.tag("system-traffic");
    addSystemTrafficFields(fp, config, workload);
    return exp::deriveSeed(fp.digest());
}

std::uint64_t
actPatternSeed(const sim::ActEngineConfig &config,
               std::size_t pattern_index, const std::string &pattern_name,
               std::uint64_t suite_seed)
{
    exp::Fingerprint fp;
    fp.tag("act-traffic");
    addActTrafficFields(fp, config, pattern_index, pattern_name, suite_seed);
    return exp::deriveSeed(fp.digest());
}

graphene::mem::ControllerConfig
channelConfig(const sim::SystemConfig &config, unsigned channel)
{
    // As runSystem builds it (src/sim/system.cc).
    graphene::mem::ControllerConfig c;
    c.timing = config.timing;
    c.banksPerRank = config.geometry.banksPerRank;
    c.rowsPerBank = config.geometry.rowsPerBank;
    c.scheme = config.scheme;
    c.fault.rowHammerThreshold = static_cast<double>(
        config.physicalThreshold ? config.physicalThreshold
                                 : config.scheme.rowHammerThreshold);
    c.fault.mu = {1.0};
    c.scheme.seed = config.seed + 17 * channel;
    c.obsBankBase = channel * config.geometry.banksPerRank;
    return c;
}

// ---- untraced batches ------------------------------------------------

std::uint64_t
Batch::acts() const
{
    std::uint64_t total = 0;
    for (const Unit &u : units)
        total += u.acts;
    return total;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
protectedScheme(const std::string &scheme)
{
    return scheme == "Graphene" || scheme == "TWiCe" || scheme == "CBT";
}

namespace {

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

void
freshDir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

/**
 * Grid units from the runner's JSONL artifact and .meta sidecar; the
 * batch's set-up is its wall outside every stage's cell phase.
 */
void
collectGrid(const std::string &jsonl, Batch &batch)
{
    double stageMs = 0.0;
    for (const std::string &line : readLines(jsonl)) {
        exp::CellKey key;
        exp::CellResult result;
        Unit unit;
        unit.record = line;
        if (!exp::parseCellRecordLine(line, key, result)) {
            unit.failed = true;
            unit.note = "unparseable record line";
        } else {
            unit.id = key.experiment + "/" + key.workload + "/" +
                      key.scheme;
            unit.scheme = key.scheme;
            unit.acts = result.stats.acts;
            unit.flips = result.stats.bitFlips;
            if (result.skipped()) {
                unit.failed = true;
                unit.note = result.error;
            }
        }
        batch.units.push_back(std::move(unit));
    }
    for (const std::string &line : readLines(jsonl + ".meta")) {
        const auto wall = graphene::json::getDouble(line, "wall_ms");
        if (!wall)
            continue;
        if (graphene::json::getString(line, "stage")) {
            const auto jobs = graphene::json::getU64(line, "jobs");
            batch.capacityMs += *wall * static_cast<double>(jobs.value_or(1));
            stageMs += *wall;
        } else {
            batch.unitMs.push_back(*wall);
            batch.busyMs += *wall;
        }
    }
    batch.setupSeconds = batch.wallSeconds - stageMs / 1000.0;
}

// A grid batch's wall runs from its inputs to the grid's return.

Batch
runSysBatch(const Shape &shape, const std::string &out_dir)
{
    const auto start = Clock::now();
    const sim::SystemConfig base = sysConfig(shape);
    const auto suite = sysSuite(shape);
    exp::RunOptions options;
    options.jobs = shape.jobs;
    options.jsonlPath = out_dir + "/cells.jsonl";
    Batch batch;
    {
        exp::Runner runner(options);
        sim::runOverheadGrid(base, suite, schemes::evaluatedSchemes(),
                             runner, populationName(shape.population));
        batch.wallSeconds = secondsSince(start);
    }
    collectGrid(options.jsonlPath, batch);
    return batch;
}

Batch
runActBatch(const Shape &shape, const std::string &out_dir)
{
    const auto start = Clock::now();
    const sim::ActEngineConfig base = actConfig(shape);
    exp::RunOptions options;
    options.jobs = shape.jobs;
    options.jsonlPath = out_dir + "/cells.jsonl";
    Batch batch;
    {
        exp::Runner runner(options);
        for (const std::uint64_t seed : actSuiteSeeds(shape))
            sim::runAdversarialGrid(
                base, schemes::evaluatedSchemes(), seed, runner,
                std::string(populationName(shape.population)) +
                    "/seed-" + std::to_string(seed));
        batch.wallSeconds = secondsSince(start);
    }
    collectGrid(options.jsonlPath, batch);
    return batch;
}

/**
 * The soak's set-up: the driver starts its sessions inside run(), with
 * no public point between the last start and the first quantum. So
 * the same driver over the same specs runs on a cancelled token — its
 * whole start path (admission, alert rules, every session's start,
 * the roster persist), after which every session retires before its
 * first quantum and the driver drains.
 */
double
serveSetupSeconds(const Shape &shape, const std::string &out_dir)
{
    freshDir(out_dir);
    const auto start = Clock::now();
    {
        serve::ServeDriver driver(serveOptions(shape, out_dir));
        for (const auto &spec : serveSpecs(shape))
            (void)driver.admit(spec).ok();
        graphene::CancelToken cancelled;
        cancelled.cancel();
        (void)driver.run(cancelled).ok();
    }
    const double seconds = secondsSince(start);
    fs::remove_all(out_dir);
    return seconds;
}

Batch
runServeBatch(const Shape &shape, const std::string &out_dir)
{
    const auto specs = serveSpecs(shape);
    Batch batch;
    batch.setupSeconds = serveSetupSeconds(shape, out_dir + ".setup");
    serve::ServeDriver driver(serveOptions(shape, out_dir));
    bool admitted = true;
    for (const auto &spec : specs)
        admitted = admitted && driver.admit(spec).ok();

    const auto start = Clock::now();
    graphene::CancelToken never;
    const auto report = driver.run(never);
    batch.wallSeconds = secondsSince(start);
    batch.unitMs.push_back(batch.wallSeconds * 1000.0);

    for (const auto &spec : specs) {
        Unit unit;
        unit.id = spec.id;
        unit.scheme = schemes::schemeKindName(spec.scheme.kind);
        const serve::Session *session = driver.findSession(spec.id);
        if (!admitted || !report.ok() || session == nullptr) {
            unit.failed = true;
            unit.note = "not admitted or service failed";
            batch.units.push_back(std::move(unit));
            continue;
        }
        unit.record = readFile(session->jsonlPath());
        for (const std::string &line : readLines(session->jsonlPath())) {
            if (!graphene::json::getU64(line, "summary"))
                continue;
            unit.acts = graphene::json::getU64(line, "acts").value_or(0);
            unit.flips =
                graphene::json::getU64(line, "bit_flips").value_or(0);
        }
        if (session->state() != serve::Session::State::Done) {
            unit.failed = true;
            unit.note = "session did not complete: " + session->failure();
        }
        const auto series =
            graphene::obs::readServeJsonl(session->jsonlPath(), spec.id);
        const auto conserved =
            series.ok() ? graphene::obs::checkConservation(series.value())
                        : graphene::Result<void>(series.error());
        if (!conserved.ok()) {
            unit.failed = true;
            unit.note = "conservation: " + conserved.error().message();
        }
        batch.units.push_back(std::move(unit));
    }
    return batch;
}

} // namespace

Batch
runBatch(const Shape &shape, const std::string &out_dir)
{
    freshDir(out_dir);
    switch (shape.population) {
      case Population::SysNormal:
        return runSysBatch(shape, out_dir);
      case Population::ActAttack:
      case Population::ActLowTrh:
        return runActBatch(shape, out_dir);
      case Population::ServeSoak:
        return runServeBatch(shape, out_dir);
    }
    return {};
}

} // namespace perfbench
