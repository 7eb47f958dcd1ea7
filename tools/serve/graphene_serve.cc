/**
 * @file
 * graphene_serve — the streaming simulation service CLI (DESIGN.md
 * §15, EXPERIMENTS.md walkthrough).
 *
 * Admits a mix of tenant sessions (synthetic pattern families over
 * the evaluated schemes, plus optional trace-file tenants), then
 * multiplexes them over the pool in cooperative quanta with periodic
 * checkpoint rotation. SIGINT/SIGTERM drain gracefully (every live
 * session is checkpointed); a SIGKILL loses nothing durable —
 * `--resume` rebuilds the roster from the session files in the
 * checkpoint directory, continues each session from its last
 * checkpoint, leaves finished ones alone, and regenerates
 * byte-identical session artifacts (the CI soak leg kills and diffs).
 */

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/cancel.hh"
#include "common/error.hh"
#include "serve/driver.hh"

namespace {

graphene::CancelToken g_cancel;

extern "C" void
handleSignal(int)
{
    g_cancel.cancel();
}

void
printUsage(const char *prog, std::ostream &os)
{
    os << "usage: " << prog << " [options]\n"
       << "  --sessions N    synthetic tenant sessions (default 4)\n"
       << "  --trace FILE    add one trace-file tenant (repeatable)\n"
       << "  --jobs N        pool workers (default 1)\n"
       << "  --quantum C     simulated cycles per quantum\n"
       << "  --ckpt-every N  checkpoint every N quanta (0 = drain "
          "only)\n"
       << "  --out DIR       session artifacts (default serve-out)\n"
       << "  --ckpt-dir DIR  checkpoints (default <out>/ckpt)\n"
       << "  --resume        continue the sessions in the checkpoint "
          "dir\n"
       << "  --fork SPEC     <parent>@<window>:<child>[:<scheme>] "
          "(repeatable)\n"
       << "  --duration W    simulated span in tREFW units "
          "(default 0.25)\n"
       << "  --stats-window C  stats window in cycles (0 = tREFW/8)\n"
       << "  --threshold T   Row Hammer threshold (default 50000)\n"
       << "  --rows R        rows per bank (default 65536)\n"
       << "  --rate F        ACT rate fraction (default 1.0)\n"
       << "  --chunk N       ingest chunk rows (default 4096)\n"
       << "  --seed S        base seed (default 1)\n"
       << "  --max-sessions N  admission capacity (default 64)\n"
       << "  --rules FILE    alert rules (`name: metric op value "
          "[for N]`)\n"
       << "  --telemetry-dir DIR  telemetry artifacts (default "
          "<out>)\n"
       << "  --status-every N  refresh status.json every N turns "
          "(0 = drain only)\n"
       << "  --no-telemetry  disable rollup/status/alert artifacts\n"
       << "  --help          this message\n";
}

struct CliOptions
{
    graphene::serve::DriverOptions driver;
    std::vector<std::string> traces;
    bool noTelemetry = false;
    unsigned sessions = 4;
    double duration = 0.25;
    std::uint64_t statsWindow = 0;
    std::uint64_t threshold = 50000;
    std::uint64_t rows = 65536;
    double rate = 1.0;
    std::size_t chunk = 4096;
    std::uint64_t seed = 1;
};

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions options;
    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << argv[0] << ": " << argv[i]
                      << " needs a value\n";
            printUsage(argv[0], std::cerr);
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--sessions") {
            options.sessions =
                static_cast<unsigned>(std::stoul(value(i)));
        } else if (arg == "--trace") {
            options.traces.push_back(value(i));
        } else if (arg == "--jobs") {
            options.driver.jobs =
                static_cast<unsigned>(std::stoul(value(i)));
        } else if (arg == "--quantum") {
            options.driver.quantumCycles = std::stoull(value(i));
        } else if (arg == "--ckpt-every") {
            options.driver.ckptEveryQuanta =
                static_cast<unsigned>(std::stoul(value(i)));
        } else if (arg == "--out") {
            options.driver.outDir = value(i);
        } else if (arg == "--ckpt-dir") {
            options.driver.ckptDir = value(i);
        } else if (arg == "--resume") {
            options.driver.resume = true;
        } else if (arg == "--fork") {
            options.driver.forks.push_back(
                graphene::unwrapOrFatal(
                    graphene::serve::parseForkSpec(value(i))));
        } else if (arg == "--duration") {
            options.duration = std::stod(value(i));
        } else if (arg == "--stats-window") {
            options.statsWindow = std::stoull(value(i));
        } else if (arg == "--threshold") {
            options.threshold = std::stoull(value(i));
        } else if (arg == "--rows") {
            options.rows = std::stoull(value(i));
        } else if (arg == "--rate") {
            options.rate = std::stod(value(i));
        } else if (arg == "--chunk") {
            options.chunk = std::stoull(value(i));
        } else if (arg == "--seed") {
            options.seed = std::stoull(value(i));
        } else if (arg == "--max-sessions") {
            options.driver.maxSessions = std::stoull(value(i));
        } else if (arg == "--rules") {
            options.driver.alertRules = value(i);
        } else if (arg == "--telemetry-dir") {
            options.driver.telemetryDir = value(i);
        } else if (arg == "--status-every") {
            options.driver.statusEveryTurns =
                static_cast<unsigned>(std::stoul(value(i)));
        } else if (arg == "--no-telemetry") {
            options.driver.telemetry = false;
            options.noTelemetry = true;
        } else if (arg == "--help") {
            printUsage(argv[0], std::cout);
            std::exit(0);
        } else {
            std::cerr << argv[0] << ": unknown flag " << arg << "\n";
            printUsage(argv[0], std::cerr);
            std::exit(2);
        }
    }
    // Telemetry is on by default for the service CLI (the library
    // default stays off so embedders opt in); --no-telemetry is the
    // escape hatch.
    options.driver.telemetry = !options.noTelemetry;
    return options;
}

/** The synthetic tenant mix: schemes and families interleaved so a
 *  small --sessions count already exercises scheme diversity. */
graphene::serve::SessionSpec
tenantSpec(const CliOptions &options, unsigned index)
{
    using graphene::serve::SourceSpec;
    graphene::serve::SessionSpec spec;
    spec.id = graphene::strprintf("t%02u", index);

    const std::vector<graphene::schemes::SchemeKind> schemes =
        graphene::schemes::evaluatedSchemes();
    spec.scheme.kind = schemes[index % schemes.size()];
    spec.scheme.rowHammerThreshold = options.threshold;
    spec.scheme.seed = options.seed + index;

    static const char *kFamilies[] = {"uniform", "s1", "s3", "s4",
                                      "worst"};
    spec.source.kind = SourceSpec::Kind::Pattern;
    spec.source.family =
        kFamilies[index % (sizeof(kFamilies) / sizeof(*kFamilies))];
    spec.source.param = 10;
    spec.source.seed = options.seed + index;

    spec.rowsPerBank = options.rows;
    spec.actRate = options.rate;
    spec.windows = options.duration;
    spec.statsWindowCycles = options.statsWindow;
    spec.chunkRows = options.chunk;
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace graphene;
    const CliOptions options = parseArgs(argc, argv);

    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);

    serve::ServeDriver driver(options.driver);
    // Under --resume the session files *are* the roster: each holds
    // its spec, so re-admitting the tenant mix here would shadow the
    // recorded sessions with fresh defaults.
    if (!options.driver.resume) {
        for (unsigned i = 0; i < options.sessions; ++i)
            unwrapOrFatal(driver.admit(tenantSpec(options, i)));
        for (std::size_t t = 0; t < options.traces.size(); ++t) {
            serve::SessionSpec spec = tenantSpec(
                options,
                options.sessions + static_cast<unsigned>(t));
            spec.id = strprintf("trace%02zu", t);
            spec.source.kind = serve::SourceSpec::Kind::TraceFile;
            spec.source.path = options.traces[t];
            unwrapOrFatal(driver.admit(spec));
        }
    }

    const serve::ServeDriver::RunReport report =
        unwrapOrFatal(driver.run(g_cancel));

    std::cout << "serve: " << report.completed << " completed, "
              << report.failed << " failed, " << report.forked
              << " forked, " << report.resumed << " resumed, "
              << report.alertsFired << " alert(s)"
              << (report.cancelled ? " (drained on cancel)" : "")
              << "\n";
    // The driver writes telemetry only when observability is
    // compiled in.
    if (options.driver.telemetry && obs::kEnabled) {
        const std::string dir = options.driver.telemetryDir.empty()
                                    ? options.driver.outDir
                                    : options.driver.telemetryDir;
        std::cout << "  telemetry: " << dir << "/status.json, "
                  << dir << "/rollup.jsonl, " << dir
                  << "/metrics.prom, " << dir << "/alerts.jsonl\n";
    }
    for (const std::string &note : report.notes)
        std::cout << "  note: " << note << "\n";

    return report.failed == 0 ? 0 : 1;
}
