/**
 * @file
 * Shared command-line plumbing for the bench drivers.
 *
 * Every driver that regenerates a paper table or figure accepts the
 * same flags:
 *
 *   --jobs N        worker threads (0 = one per hardware thread)
 *   --json PATH     write machine-readable JSONL next to the tables
 *   --cache DIR     content-addressed result cache (off by default);
 *                   rerunning a killed sweep with the same DIR
 *                   recomputes only the cells it never finished
 *   --obs DIR       per-cell event traces + windowed metrics (grid
 *                   drivers; no-op under GRAPHENE_OBS_OFF)
 *   --windows W     shrink/grow the simulated span (grid drivers)
 *   --timeout-ms T  wall-clock budget per grid cell (0 =
 *                   unlimited). Every runOverheadGrid and
 *                   runAdversarialGrid cell honours it; only
 *                   ablation_scheduler's replay cells ignore it and
 *                   always run to completion.
 *   --retries N     extra attempts after a cell timeout
 *   --no-progress   suppress the live progress line on stderr
 *   --help          usage
 *
 * parseBenchArgs() maps them onto exp::RunOptions so the grid
 * drivers hand the result straight to exp::Runner; pure table
 * drivers only consume --json via JsonSink.
 */

#ifndef BENCH_BENCH_MAIN_HH
#define BENCH_BENCH_MAIN_HH

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/error.hh"
#include "common/table_printer.hh"
#include "exp/runner.hh"
#include "obs/event.hh"

namespace graphene {
namespace bench {

struct BenchOptions
{
    /** Forwarded to exp::Runner (jobs, cache, artifacts, progress). */
    exp::RunOptions run;

    /** --windows override; 0 keeps the driver's default span. */
    double windows = 0.0;
};

inline void
printUsage(const char *prog, std::ostream &os)
{
    os << "usage: " << prog << " [options]\n"
       << "  --jobs N        worker threads (default: hardware)\n"
       << "  --json PATH     write JSONL artifacts to PATH\n"
       << "  --cache DIR     cache cell results under DIR; rerun a\n"
       << "                  killed sweep with it to resume\n"
       << "  --obs DIR       write per-cell traces + metrics to DIR\n"
       << "  --windows W     override the simulated span (tREFW units)\n"
       << "  --timeout-ms T  wall-clock budget per cell (0 = off);\n"
       << "                  ablation replay cells ignore it\n"
       << "  --retries N     extra attempts after a cell timeout\n"
       << "  --no-progress   no live progress line on stderr\n"
       << "  --help          this message\n";
}

/**
 * Parse the shared flags. Exits on --help or any malformed flag
 * (boundary code: bench mains own the process).
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv)
{
    BenchOptions options;
    options.run.progress = true;

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
        if (arg == "--jobs") {
            options.run.jobs =
                static_cast<unsigned>(std::stoul(value(i)));
        } else if (arg == "--json") {
            options.run.jsonlPath = value(i);
        } else if (arg == "--cache") {
            options.run.cacheDir = value(i);
        } else if (arg == "--obs") {
            options.run.obsDir = value(i);
            if (!obs::kEnabled)
                std::cerr << argv[0]
                          << ": --obs ignored (built with "
                             "GRAPHENE_OBS_OFF)\n";
        } else if (arg == "--windows") {
            options.windows = std::stod(value(i));
        } else if (arg == "--timeout-ms") {
            options.run.cellTimeoutMs = std::stod(value(i));
        } else if (arg == "--retries") {
            options.run.cellRetries =
                static_cast<unsigned>(std::stoul(value(i)));
        } else if (arg == "--no-progress") {
            options.run.progress = false;
        } else if (arg == "--help") {
            printUsage(argv[0], std::cout);
            std::exit(0);
        } else {
            std::cerr << argv[0] << ": unknown flag " << arg << "\n";
            printUsage(argv[0], std::cerr);
            std::exit(2);
        }
    }
    return options;
}

/**
 * JSONL emission for the pure table drivers (no experiment grid):
 * collects TablePrinter::printJsonl output into the --json file.
 * With no --json path every call is a no-op, so drivers add tables
 * unconditionally.
 */
class JsonSink
{
  public:
    explicit JsonSink(const std::string &path)
    {
        if (path.empty())
            return;
        _out.open(path, std::ios::trunc);
        if (!_out) {
            std::cerr << "cannot write JSONL to " << path << "\n";
            std::exit(2);
        }
    }

    void add(const TablePrinter &table)
    {
        if (_out.is_open())
            table.printJsonl(_out);
    }

  private:
    std::ofstream _out;
};

} // namespace bench
} // namespace graphene

#endif // BENCH_BENCH_MAIN_HH
