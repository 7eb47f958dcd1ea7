/**
 * @file
 * perfbench_driver — runs one benchmark workload and prints one JSON
 * object of raw measurements on stdout (perfbench/run.py computes the
 * benchmark's metrics and checks correctness from it).
 *
 *   perfbench_driver --workload W --seed N --seconds S --jobs J
 *                    --out DIR [--trace]
 *
 * Untraced: run one untimed warm-up batch of W (its artifacts stay in
 * DIR/first), then timed batches until S host seconds of batches have
 * elapsed; every timed batch must reproduce the warm-up batch byte for
 * byte. Each timed batch also reports its set-up time.
 *
 * Traced (--trace): untraced batches of W, then its traced replica,
 * plus small traced slices of the other populations for the layers W
 * never reaches; prints every per-layer metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hh"
#include "common/json.hh"

namespace perfbench {

namespace {

struct Args
{
    Population workload = Population::SysNormal;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    unsigned jobs = 4;
    std::string out = "perfbench-out";
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why << "\n"
              << "usage: perfbench_driver --workload W --seed N "
                 "--seconds S --jobs J --out DIR [--trace]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--trace") {
            args.trace = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            if (!parsePopulation(value, args.workload))
                usage("unknown workload " + value);
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--jobs") {
            args.jobs = static_cast<unsigned>(std::stoul(value));
        } else if (flag == "--out") {
            args.out = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (args.jobs == 0)
        usage("--jobs must be positive");
    return args;
}

std::string
numbers(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + graphene::json::number(values[i]);
    return out + "]";
}

std::string
strings(const std::vector<std::string> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + graphene::json::quote(values[i]);
    return out + "]";
}

/** Restart the kernel's peak-RSS mark (Linux clear_refs "5"). */
bool
resetPeakRss()
{
    std::ofstream os("/proc/self/clear_refs");
    os << "5";
    os.flush();
    return static_cast<bool>(os);
}

/** Peak RSS since the last reset (VmHWM), else since process start. */
double
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6));
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss);
}

/**
 * Host seconds of five reps of a fixed kernel — a dependent-load walk
 * over 4 MiB plus integer mixing, the same work on every build — for
 * cross-machine normalisation. Ungated.
 */
std::vector<double>
calibrate()
{
    constexpr std::size_t kWords = (4u << 20) / sizeof(std::uint64_t);
    std::vector<std::uint64_t> table(kWords);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (auto &w : table) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        w = x;
    }
    std::vector<double> seconds;
    std::uint64_t acc = 0;
    for (int rep = 0; rep < 5; ++rep) {
        const auto start = Clock::now();
        std::uint64_t idx = 0;
        for (std::uint32_t i = 0; i < (1u << 22); ++i) {
            const std::uint64_t v = table[idx];
            acc += v * 0xff51afd7ed558ccdULL;
            idx = (v ^ acc) % kWords;
        }
        seconds.push_back(secondsSince(start));
    }
    volatile std::uint64_t sink = acc;
    (void)sink;
    return seconds;
}

/** The fields every result carries: build flags and calibration. */
std::string
runJson(const std::vector<double> &calibration)
{
    std::ostringstream os;
    os << ",\"calibration_s\":" << numbers(calibration)
       << ",\"build\":{\"build_type\":"
       << graphene::json::quote(PERFBENCH_BUILD_TYPE)
       << ",\"contracts\":" << (PERFBENCH_CONTRACTS ? "true" : "false")
       << ",\"obs_off\":" << (PERFBENCH_OBS_OFF ? "true" : "false") << "}";
    return os.str();
}

int
untraced(const Args &args, const Shape &shape)
{
    const std::vector<double> calibration = calibrate();

    // The first batch warms the process up (allocator, page cache)
    // and is not timed; its artifacts are the ones checked against
    // the reference, and every timed batch must reproduce them.
    const Batch first = runBatch(shape, args.out + "/first");
    std::vector<Unit> units = first.units;
    // Peak RSS per timed batch: which sessions or cells overlap varies
    // with the schedule, so one process-wide peak is noisy.
    std::vector<double> unitMs, batchSeconds, batchActs, batchRssKb, setup;
    double timed = 0.0;
    while (timed < args.seconds || batchSeconds.empty()) {
        const bool reset = resetPeakRss();
        const Batch next = runBatch(shape, args.out + "/next");
        batchRssKb.push_back(reset ? peakRssKb() : 0.0);
        for (std::size_t i = 0; i < next.units.size(); ++i) {
            Unit unit = next.units[i];
            if (!unit.failed && (i >= first.units.size() ||
                                 unit.record != first.units[i].record)) {
                unit.failed = true;
                unit.note = "output differs from the first batch";
            }
            units.push_back(std::move(unit));
        }
        unitMs.insert(unitMs.end(), next.unitMs.begin(), next.unitMs.end());
        batchSeconds.push_back(next.wallSeconds);
        batchActs.push_back(static_cast<double>(next.acts()));
        setup.push_back(next.setupSeconds);
        timed += next.wallSeconds;
    }
    std::filesystem::remove_all(args.out + "/next");

    std::uint64_t failed = 0;
    std::vector<std::string> notes;
    for (const Unit &u : units) {
        const bool flipped = u.flips > 0 && protectedScheme(u.scheme);
        if (u.failed || flipped) {
            ++failed;
            if (notes.size() < 10)
                notes.push_back(u.id + ": " +
                                (u.failed ? u.note : "bit flips"));
        }
    }

    std::cout << "{\"workload\":"
              << graphene::json::quote(populationName(shape.population))
              << ",\"seed\":" << args.seed << ",\"jobs\":" << args.jobs
              << ",\"trace\":false,\"batches\":" << batchSeconds.size()
              << ",\"timed_s\":" << graphene::json::number(timed)
              << ",\"batch_s\":" << numbers(batchSeconds)
              << ",\"batch_acts\":" << numbers(batchActs)
              << ",\"unit_ms\":" << numbers(unitMs)
              << ",\"setup_s\":" << numbers(setup)
              << ",\"peak_rss_kb\":" << graphene::json::number(peakRssKb())
              << ",\"batch_rss_kb\":" << numbers(batchRssKb)
              << ",\"attempted\":" << units.size()
              << ",\"failed\":" << failed
              << ",\"notes\":" << strings(notes)
              << ",\"first_dir\":"
              << graphene::json::quote(args.out + "/first")
              << runJson(calibration) << "}\n";
    return 0;
}

int
traced(const Args &args, const Shape &shape)
{
    const std::vector<double> calibration = calibrate();
    // The named workload in full, then slices of the populations
    // holding the layers it never reaches (README.md, "Traced run").
    std::vector<Shape> shapes = {shape};
    const auto slice = [&](Population p) {
        Shape s = shape;
        s.population = p;
        s.full = false;
        shapes.push_back(s);
    };
    if (shape.population != Population::SysNormal)
        slice(Population::SysNormal);
    if (shape.population == Population::SysNormal ||
        shape.population == Population::ServeSoak)
        slice(Population::ActAttack);
    if (shape.population != Population::ServeSoak)
        slice(Population::ServeSoak);

    std::map<std::string, double> metrics;
    std::map<std::string, std::string> source;
    std::uint64_t units = 0, mismatches = 0, spans = 0;
    std::vector<std::string> notes, overheads;
    std::vector<double> quantumMs;
    for (const Shape &s : shapes) {
        const std::string name = populationName(s.population);
        const std::string label = name + (s.full ? "" : " (slice)");
        const TraceResult r =
            runTraced(s, args.out + "/trace-" + name);
        units += r.units;
        mismatches += r.mismatches;
        spans += r.spans;
        for (const std::string &note : r.notes)
            notes.push_back(label + ": " + note);
        for (const auto &[key, value] : r.metrics)
            if (metrics.emplace(key, value).second)
                source[key] = label;
        if (quantumMs.empty())
            quantumMs = r.quantumMs;
        const double overhead = r.untracedSeconds > 0
                                    ? r.tracedSeconds / r.untracedSeconds
                                    : 0.0;
        if (s.full)
            metrics["trace.overhead_ratio"] = overhead;
        overheads.push_back(label + ": " + graphene::json::number(overhead) +
                            " (" + graphene::json::number(r.tracedSeconds) +
                            " s traced / " +
                            graphene::json::number(r.untracedSeconds) +
                            " s untraced)");
    }

    std::cout << "{\"workload\":"
              << graphene::json::quote(populationName(shape.population))
              << ",\"seed\":" << args.seed << ",\"jobs\":" << args.jobs
              << ",\"trace\":true,\"metrics\":{";
    bool firstMetric = true;
    for (const auto &[key, value] : metrics) {
        std::cout << (firstMetric ? "" : ",") << graphene::json::quote(key)
                  << ":{\"value\":" << graphene::json::number(value)
                  << ",\"from\":"
                  << graphene::json::quote(source.count(key) ? source[key]
                                                             : "")
                  << "}";
        firstMetric = false;
    }
    std::cout << "},\"attempted\":" << units << ",\"failed\":" << mismatches
              << ",\"spans\":" << spans
              << ",\"quantum_ms\":" << numbers(quantumMs)
              << ",\"overhead\":" << strings(overheads)
              << ",\"notes\":" << strings(notes)
              << runJson(calibration) << "}\n";
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    Shape shape;
    shape.population = args.workload;
    shape.seed = args.seed;
    shape.jobs = args.jobs;
    std::filesystem::create_directories(args.out);
    return args.trace ? traced(args, shape) : untraced(args, shape);
}
