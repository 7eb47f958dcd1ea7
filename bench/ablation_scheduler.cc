/**
 * @file
 * Scheduler ablation: the same captured workload trace replayed
 * under FCFS and FR-FCFS scheduling, with and without Graphene —
 * quantifying (a) what request reordering buys the memory system and
 * (b) that Graphene's zero-overhead result is independent of the
 * scheduling policy (its triggers depend only on per-bank ACT
 * counts, which reordering does not change).
 *
 * Each (workload, scheduler, scheme) combination is one exp:: cell
 * on the shared runner. The capture seed derives from a fingerprint
 * that excludes the scheduler and scheme axes, so all four cells of
 * a workload replay the byte-identical trace — the ablation compares
 * policies, never traffic.
 */

#include <iostream>

#include "bench_main.hh"
#include "common/table_printer.hh"
#include "exp/fingerprint.hh"
#include "sim/replay.hh"

namespace {

using namespace graphene;

const char *
policyName(mem::SchedulerPolicy policy)
{
    return policy == mem::SchedulerPolicy::Fcfs ? "FCFS" : "FR-FCFS";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace graphene;
    using graphene::TablePrinter;

    const bench::BenchOptions options =
        bench::parseBenchArgs(argc, argv);
    exp::Runner runner(options.run);

    dram::Geometry geometry;
    const auto timing = dram::TimingParams::ddr4_2400();

    const double windows =
        options.windows != 0.0 ? options.windows : 0.125;
    const Cycle horizon{static_cast<std::uint64_t>(
        windows * static_cast<double>(timing.cREFW().value()))};

    exp::ExperimentSpec spec;
    spec.name = "ablation-scheduler";
    for (const char *app : {"lbm", "mcf", "mix-high"}) {
        const workloads::WorkloadSpec workload =
            std::string(app) == "mix-high"
                ? workloads::mixHigh(16, 42)
                : workloads::homogeneous(app, 16);

        // Scheduler- and scheme-independent: seeds the capture.
        exp::Fingerprint traffic;
        traffic.tag("ablation-traffic")
            .field("workload", workload.name)
            .field("cores", std::uint64_t{16})
            .field("horizon", horizon.value())
            .field("rows_per_bank", geometry.rowsPerBank);
        const std::uint64_t trace_seed =
            exp::deriveSeed(traffic.digest());

        for (const auto policy : {mem::SchedulerPolicy::Fcfs,
                                  mem::SchedulerPolicy::FrFcfs}) {
            for (const auto kind : {schemes::SchemeKind::None,
                                    schemes::SchemeKind::Graphene}) {
                exp::Fingerprint cell = traffic;
                cell.field("policy", std::string(policyName(policy)))
                    .field("scheme",
                           std::string(schemes::schemeKindName(kind)));

                exp::Cell job;
                job.key.experiment = spec.name;
                job.key.workload = workload.name;
                job.key.scheme =
                    std::string(policyName(policy)) + "/" +
                    schemes::schemeKindName(kind);
                job.key.fingerprint = cell.digest();
                // Replay ignores the context: it neither traces nor
                // polls the budget.
                job.body = [geometry, timing, policy, kind, workload,
                            horizon,
                            trace_seed](const exp::CellContext &) {
                    const dram::AddressMapper mapper(geometry);
                    const auto trace = workloads::captureTrace(
                        workload, mapper, horizon, trace_seed);
                    sim::ReplayConfig config;
                    config.geometry = geometry;
                    config.timing = timing;
                    config.policy = policy;
                    config.scheme.kind = kind;
                    const sim::ReplayResult r =
                        sim::replayTrace(config, trace);
                    exp::CellResult result;
                    result.stats.requests = r.requests;
                    result.stats.rowHitRate = r.rowHitRate;
                    result.stats.meanLatency = r.meanLatency;
                    result.stats.victimRowsRefreshed =
                        r.victimRowsRefreshed;
                    result.stats.bitFlips = r.bitFlips;
                    return result;
                };
                spec.cells.push_back(std::move(job));
            }
        }
    }

    const auto results = runner.run(spec);

    TablePrinter table(
        "Scheduler ablation: captured traces replayed under FCFS vs "
        "FR-FCFS (" + TablePrinter::num(windows * 64.0, 3) +
        " ms each)");
    table.header({"Workload", "Scheduler", "Scheme", "Row-hit rate",
                  "Mean latency (cyc)", "Victim rows", "Flips"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &key = spec.cells[i].key;
        const auto &stats = results[i].stats;
        const auto slash = key.scheme.find('/');
        table.row({key.workload, key.scheme.substr(0, slash),
                   key.scheme.substr(slash + 1),
                   TablePrinter::pct(stats.rowHitRate),
                   TablePrinter::num(stats.meanLatency, 4),
                   std::to_string(stats.victimRowsRefreshed),
                   std::to_string(stats.bitFlips)});
    }
    table.print(std::cout);

    std::cout
        << "Expected shape: FR-FCFS recovers row hits that the\n"
           "arrival order destroys and lowers mean latency;\n"
           "Graphene's victim-refresh count (zero on these normal\n"
           "workloads) and protection are identical under both\n"
           "schedulers — its guarantees do not depend on the\n"
           "controller's scheduling policy.\n";
    std::cerr << runner.summary().describe() << "\n";
    return 0;
}
