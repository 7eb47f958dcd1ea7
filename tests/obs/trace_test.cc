/**
 * @file
 * Tests for the event tracer and its exporters, plus the PR's trace
 * determinism acceptance: per-cell trace files produced by the
 * experiment runner are byte-identical across --jobs counts, and
 * tracing never perturbs the deterministic JSONL artifact. Under
 * GRAPHENE_OBS_OFF the runner half asserts the no-output guarantee
 * instead; the tracer itself is compiled in both builds.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "obs/obs.hh"
#include "sim/experiment.hh"

namespace graphene {
namespace obs {
namespace {

namespace fs = std::filesystem;

Event
make(std::uint64_t cycle, std::uint16_t bank, EventKind kind,
     std::uint32_t row = 0)
{
    Event e;
    e.cycle = Cycle{cycle};
    e.bank = bank;
    e.kind = kind;
    e.row = Row{row};
    return e;
}

TEST(Tracer, MergeIsStableByCycleThenBank)
{
    Tracer tracer(16);
    // Banks emit in their own (monotone) order; cycles interleave.
    tracer.record(make(30, 1, EventKind::Act, 5));
    tracer.record(make(10, 1, EventKind::Act, 6));
    tracer.record(make(10, 0, EventKind::Act, 7));
    tracer.record(make(10, 0, EventKind::PeriodicRef));

    const auto all = tracer.merged();
    ASSERT_EQ(all.size(), 4u);
    // cycle 10 / bank 0 first (its two events in emission order),
    // then cycle 10 / bank 1, then cycle 30 / bank 1.
    EXPECT_EQ(all[0].bank, 0u);
    EXPECT_EQ(all[0].kind, EventKind::Act);
    EXPECT_EQ(all[1].bank, 0u);
    EXPECT_EQ(all[1].kind, EventKind::PeriodicRef);
    EXPECT_EQ(all[2].bank, 1u);
    EXPECT_EQ(all[2].cycle.value(), 10u);
    EXPECT_EQ(all[3].cycle.value(), 30u);
}

TEST(Tracer, JsonlHasHeaderEventsAndFooter)
{
    Tracer tracer(8);
    tracer.record(make(5, 0, EventKind::Act, 42));
    Event no_row = make(9, 0, EventKind::TrackerReset);
    no_row.row = Row::invalid();
    no_row.arg = 3;
    tracer.record(no_row);

    std::ostringstream os;
    tracer.writeEventsJsonl(os, Cycle{1000});
    const std::string text = os.str();

    EXPECT_NE(text.find("graphene-obs-events-v1"), std::string::npos);
    EXPECT_NE(text.find("\"window_cycles\":1000"), std::string::npos);
    EXPECT_NE(text.find("\"kind\":\"act\",\"row\":42"),
              std::string::npos);
    // Row-less events omit the field entirely.
    EXPECT_NE(text.find("\"kind\":\"tracker-reset\",\"arg\":3"),
              std::string::npos);
    EXPECT_NE(text.find("\"footer\":true,\"events\":2,\"dropped\":0"),
              std::string::npos);

    std::ostringstream again;
    tracer.writeEventsJsonl(again, Cycle{1000});
    EXPECT_EQ(text, again.str());
}

TEST(Tracer, OverflowDropsAreCountedInTheFooter)
{
    Tracer tracer(3);
    for (std::uint64_t i = 0; i < 8; ++i)
        tracer.record(make(i, 0, EventKind::Act, i));
    for (std::uint64_t i = 0; i < 2; ++i)
        tracer.record(make(i, 1, EventKind::Act, i));

    EXPECT_EQ(tracer.totalRetained(), 5u);
    EXPECT_EQ(tracer.totalDropped(), 5u);
    EXPECT_EQ(tracer.peakOccupancy(), 3u);

    std::ostringstream os;
    tracer.writeEventsJsonl(os);
    EXPECT_NE(os.str().find("\"dropped\":5"), std::string::npos);
    EXPECT_NE(os.str().find("\"per_bank_dropped\":[5,0]"),
              std::string::npos);
}

TEST(Tracer, ChromeTraceNamesBankTracksAndEvents)
{
    Tracer tracer(8);
    tracer.record(make(5, 1, EventKind::VictimRefresh, 7));

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("thread_name"), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"victim-refresh\""),
              std::string::npos);
    EXPECT_NE(text.find("\"ts\":5"), std::string::npos);
    EXPECT_NE(text.find("dram-command-cycles"), std::string::npos);
}

// ---- runner integration ---------------------------------------------

sim::ActEngineConfig
smallActConfig()
{
    sim::ActEngineConfig config;
    config.rowsPerBank = 4096;
    config.scheme.rowsPerBank = 4096;
    config.windows = 0.02;
    return config;
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Every regular file under @p dir, keyed by filename. */
std::map<std::string, std::string>
slurpDir(const fs::path &dir)
{
    std::map<std::string, std::string> files;
    if (!fs::is_directory(dir))
        return files;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.is_regular_file())
            files[e.path().filename().string()] = slurp(e.path());
    return files;
}

fs::path
freshDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

TEST(TraceDeterminism, PerCellTracesAreByteIdenticalAcrossJobs)
{
    const std::vector<schemes::SchemeKind> kinds = {
        schemes::SchemeKind::Graphene, schemes::SchemeKind::Para};

    const fs::path root = freshDir("graphene_obs_jobs_test");
    std::map<std::string, std::string> traces[2];
    std::string artifacts[2];
    const unsigned jobs[2] = {1, 4};
    for (int r = 0; r < 2; ++r) {
        exp::RunOptions options;
        options.jobs = jobs[r];
        options.obsDir =
            (root / ("obs" + std::to_string(r))).string();
        options.jsonlPath =
            (root / ("cells" + std::to_string(r) + ".jsonl"))
                .string();
        options.progress = false;
        exp::Runner runner(options);
        sim::runAdversarialGrid(smallActConfig(), kinds, 99, runner,
                                "obs-jobs-test");
        traces[r] = slurpDir(options.obsDir);
        artifacts[r] = slurp(options.jsonlPath);
    }

    // The primary artifact never depends on the jobs count...
    EXPECT_EQ(artifacts[0], artifacts[1]);

    if (kEnabled) {
        // ...and neither does any per-cell trace file: same names,
        // same bytes (events JSONL, Chrome trace, metrics JSONL).
        ASSERT_FALSE(traces[0].empty());
        ASSERT_EQ(traces[0].size(), traces[1].size());
        for (const auto &kv : traces[0]) {
            ASSERT_TRUE(traces[1].count(kv.first)) << kv.first;
            EXPECT_EQ(kv.second, traces[1].at(kv.first)) << kv.first;
        }
        // Every cell produced its three sidecar files.
        std::size_t events = 0;
        for (const auto &kv : traces[0])
            if (kv.first.find(".events.jsonl") != std::string::npos)
                ++events;
        EXPECT_GT(events, 0u);
    } else {
        // Compiled out: --obs must leave no trace files behind.
        EXPECT_TRUE(traces[0].empty());
    }
    fs::remove_all(root);
}

TEST(TraceDeterminism, TracingDoesNotPerturbTheArtifact)
{
    const std::vector<schemes::SchemeKind> kinds = {
        schemes::SchemeKind::Graphene};
    const fs::path root = freshDir("graphene_obs_perturb_test");

    std::string artifacts[2];
    for (int r = 0; r < 2; ++r) {
        exp::RunOptions options;
        options.jobs = 2;
        if (r == 1)
            options.obsDir = (root / "obs").string();
        options.jsonlPath =
            (root / ("cells" + std::to_string(r) + ".jsonl"))
                .string();
        options.progress = false;
        exp::Runner runner(options);
        sim::runAdversarialGrid(smallActConfig(), kinds, 7, runner,
                                "obs-perturb-test");
        artifacts[r] = slurp(options.jsonlPath);
    }
    EXPECT_FALSE(artifacts[0].empty());
    EXPECT_EQ(artifacts[0], artifacts[1]);
    fs::remove_all(root);
}

TEST(TraceDeterminism, CellsThatNeverOpenTheirWindowsWriteNoTrace)
{
    // Every body is handed a sink under --obs; one that ignores it
    // (like ablation_scheduler's replay cells) leaves no trace files.
    const fs::path root = freshDir("graphene_obs_silent_test");
    exp::ExperimentSpec spec;
    spec.name = "silent";
    exp::Cell cell;
    cell.key = {"silent", "w", "s", 1};
    bool handed_sink = false;
    cell.body = [&handed_sink](const exp::CellContext &ctx) {
        handed_sink = ctx.sink != nullptr;
        exp::CellResult r;
        r.stats.acts = 1;
        return r;
    };
    spec.cells.push_back(std::move(cell));

    exp::RunOptions options;
    options.jobs = 1;
    options.obsDir = (root / "obs").string();
    exp::Runner runner(options);
    ASSERT_EQ(runner.run(spec).size(), 1u);
    EXPECT_EQ(handed_sink, kEnabled);
    EXPECT_TRUE(slurpDir(options.obsDir).empty());
    fs::remove_all(root);
}

} // namespace
} // namespace obs
} // namespace graphene
