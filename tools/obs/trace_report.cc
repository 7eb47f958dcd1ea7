/**
 * @file
 * trace_report: summarise a graphene-obs-events-v1 JSONL trace.
 *
 *   trace_report <events.jsonl> [--timeline N] [--top N]
 *   trace_report --metrics <metrics.jsonl>
 *
 * Prints the event totals per kind, the top hot rows by ACT count,
 * an events-per-window table (using the header's window length), and
 * a scheme-action timeline (victim refreshes, threshold crossings,
 * tracker resets, faults, scrubs, alerts) — the quick look CI
 * attaches to every fig8 acceptance run.
 *
 * --metrics switches to the graphene-obs-metrics-v1 reader (shared
 * with the serve rollup): per-window deltas, end-of-run totals, and
 * the conservation audit (sum of deltas must equal each total).
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "obs/rollup.hh"

namespace {

using graphene::json::getString;
using graphene::json::getU64;

struct Options
{
    std::string path;
    std::string metrics;
    std::size_t timeline = 24;
    std::size_t top = 10;
};

int
usage()
{
    std::cerr << "usage: trace_report <events.jsonl> [--timeline N] "
                 "[--top N]\n"
                 "       trace_report --metrics <metrics.jsonl>\n";
    return 2;
}

/** Kinds that represent scheme/controller decisions, not raw
 *  traffic. */
bool
isActionKind(const std::string &kind)
{
    return kind == "victim-refresh" || kind == "threshold-cross" ||
           kind == "tracker-reset" || kind == "queue-stall" ||
           kind == "alert";
}

/** The --metrics mode: windowed deltas + the conservation audit,
 *  through the same reader the serve rollup uses. */
int
reportMetrics(const std::string &path)
{
    const auto series =
        graphene::obs::readMetricsJsonl(path, "metrics");
    if (!series.ok()) {
        std::cerr << "trace_report: " << series.error().describe()
                  << "\n";
        return 1;
    }
    std::cout << "metrics: " << path << "\n";
    if (series.value().windowCycles)
        std::cout << "window: " << series.value().windowCycles
                  << " cycles\n";
    std::cout << "windows: " << series.value().windows.size() << "\n";
    std::cout << "\n== per-window deltas ==\n";
    for (const auto &w : series.value().windows) {
        std::cout << "  window " << w.window << ":";
        for (const auto &kv : w.values)
            std::cout << " " << kv.first << "="
                      << graphene::json::number(kv.second);
        std::cout << "\n";
    }
    if (series.value().haveTotals) {
        std::cout << "\n== totals ==\n";
        for (const auto &kv : series.value().totals)
            std::cout << "  " << std::left << std::setw(28)
                      << (kv.first + " ")
                      << graphene::json::number(kv.second) << "\n";
        const auto audit = graphene::obs::checkConservation(series.value());
        if (audit.ok()) {
            std::cout << "\nconservation: OK (window deltas sum to "
                         "the totals)\n";
        } else {
            std::cout << "\nconservation: VIOLATED\n  "
                      << audit.error().describe() << "\n";
            return 1;
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--timeline" && i + 1 < argc)
            opt.timeline = static_cast<std::size_t>(
                std::stoul(argv[++i]));
        else if (arg == "--top" && i + 1 < argc)
            opt.top =
                static_cast<std::size_t>(std::stoul(argv[++i]));
        else if (arg == "--metrics" && i + 1 < argc)
            opt.metrics = argv[++i];
        else if (opt.path.empty() && arg[0] != '-')
            opt.path = arg;
        else
            return usage();
    }
    if (!opt.metrics.empty())
        return reportMetrics(opt.metrics);
    if (opt.path.empty())
        return usage();

    std::ifstream in(opt.path);
    if (!in) {
        std::cerr << "trace_report: cannot open " << opt.path << "\n";
        return 1;
    }

    std::uint64_t window_cycles = 0;
    std::uint64_t events = 0, dropped = 0;
    bool have_footer = false;
    std::map<std::string, std::uint64_t> kind_totals;
    std::map<std::uint64_t, std::uint64_t> act_rows;
    // window -> kind -> count
    std::map<std::uint64_t, std::map<std::string, std::uint64_t>>
        window_table;

    struct ActionLine
    {
        std::uint64_t cycle = 0;
        std::uint64_t bank = 0;
        std::string kind;
        std::string detail;
    };
    std::vector<ActionLine> timeline;

    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (getString(line, "format")) {
            window_cycles = getU64(line, "window_cycles").value_or(0);
            continue;
        }
        if (graphene::json::raw(line, "footer")) {
            events = getU64(line, "events").value_or(0);
            dropped = getU64(line, "dropped").value_or(0);
            have_footer = true;
            continue;
        }
        const auto kind = getString(line, "kind");
        const auto cycle = getU64(line, "cycle");
        if (!kind || !cycle)
            continue;
        ++kind_totals[*kind];
        const std::uint64_t window =
            window_cycles ? *cycle / window_cycles : 0;
        ++window_table[window][*kind];
        if (*kind == "act") {
            if (const auto row = getU64(line, "row"))
                ++act_rows[*row];
        } else if (isActionKind(*kind) &&
                   timeline.size() < opt.timeline) {
            ActionLine a;
            a.cycle = *cycle;
            a.bank = getU64(line, "bank").value_or(0);
            a.kind = *kind;
            if (const auto row = getU64(line, "row"))
                a.detail += "row " + std::to_string(*row);
            if (const auto arg = getU64(line, "arg"); arg && *arg) {
                if (!a.detail.empty())
                    a.detail += ", ";
                a.detail += "arg " + std::to_string(*arg);
            }
            timeline.push_back(std::move(a));
        }
    }

    std::cout << "trace: " << opt.path << "\n";
    if (have_footer)
        std::cout << "events: " << events << " retained, " << dropped
                  << " dropped\n";
    if (window_cycles)
        std::cout << "window: " << window_cycles << " cycles (tREFW)\n";

    std::cout << "\n== event totals ==\n";
    for (const auto &kv : kind_totals)
        std::cout << "  " << std::left << std::setw(18) << kv.first
                  << kv.second << "\n";

    std::cout << "\n== top hot rows (by ACT) ==\n";
    std::vector<std::pair<std::uint64_t, std::uint64_t>> rows(
        act_rows.begin(), act_rows.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    if (rows.size() > opt.top)
        rows.resize(opt.top);
    for (const auto &kv : rows)
        std::cout << "  row " << std::left << std::setw(10) << kv.first
                  << kv.second << " ACTs\n";

    std::cout << "\n== events per window ==\n";
    for (const auto &wk : window_table) {
        std::cout << "  window " << wk.first << ":";
        for (const auto &kv : wk.second)
            std::cout << " " << kv.first << "=" << kv.second;
        std::cout << "\n";
    }

    std::cout << "\n== scheme action timeline (first "
              << timeline.size() << ") ==\n";
    for (const auto &a : timeline) {
        std::cout << "  @" << std::left << std::setw(12) << a.cycle
                  << " bank " << a.bank << "  " << std::setw(16)
                  << a.kind;
        if (!a.detail.empty())
            std::cout << " (" << a.detail << ")";
        std::cout << "\n";
    }
    return 0;
}
