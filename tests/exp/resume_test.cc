/**
 * @file
 * Runner-level resume and timeout contracts. A killed sweep resumes
 * by rerunning it against the same cache directory:
 *
 *  - the cache directory is the run's manifest of recorded cells:
 *    a reopened cache serves every stored cell and misses any other,
 *    and an empty directory is a quiet miss with no rejection note;
 *  - a rerun serves completed cells without re-executing them and
 *    reproduces the cold JSONL artifact byte for byte;
 *  - an edited cache entry fails its container checksum, so the
 *    cell is recomputed (and its entry rewritten) instead of served,
 *    with one typed note on stderr;
 *  - a stuck cell exhausts its wall-clock budget, is retried the
 *    bounded number of times, reports a Timeout-typed error, and is
 *    never cached — a rerun retries it from scratch;
 *  - system-grid cells honour the budget too, a cell whose baseline
 *    timed out is itself a timeout, and a budget-free rerun then
 *    reproduces the cold artifact.
 */

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.hh"
#include "exp/cache.hh"
#include "exp/runner.hh"
#include "sim/experiment.hh"

namespace {

using namespace graphene;

std::string
freshDir(const char *name)
{
    const auto dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

exp::CellKey
keyFor(std::uint64_t fp)
{
    return {"resume-test", "w" + std::to_string(fp),
            "s" + std::to_string(fp), fp};
}

exp::CellResult
resultFor(std::uint64_t fp)
{
    exp::CellResult r;
    r.stats.acts = fp * 100;
    r.stats.victimRowsRefreshed = fp;
    r.stats.windows = 1.0;
    return r;
}

/** Files in @p dir (0 when it does not exist). */
std::size_t
entryCount(const std::string &dir)
{
    std::error_code ec;
    std::size_t n = 0;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec))
        ++n;
    return n;
}

/** A four-cell spec whose bodies count executions. */
exp::ExperimentSpec
countingSpec(std::atomic<unsigned> &executions)
{
    exp::ExperimentSpec spec;
    spec.name = "counting";
    for (std::uint64_t fp = 1; fp <= 4; ++fp) {
        exp::Cell cell;
        cell.key = keyFor(fp);
        cell.body = [fp, &executions](const exp::CellContext &) {
            executions.fetch_add(1);
            return resultFor(fp);
        };
        spec.cells.push_back(std::move(cell));
    }
    return spec;
}

TEST(Manifest, RoundTripsRecordedCells)
{
    const std::string dir = freshDir("manifest_roundtrip");
    {
        const exp::Cache cache(dir);
        for (std::uint64_t fp = 1; fp <= 3; ++fp)
            cache.store(keyFor(fp), resultFor(fp));
    }
    // A restarted run reopens the same directory.
    const exp::Cache reopened(dir);
    EXPECT_EQ(entryCount(dir), 3u);
    for (std::uint64_t fp = 1; fp <= 3; ++fp) {
        std::string why;
        const auto hit = reopened.load(keyFor(fp), &why);
        ASSERT_TRUE(hit.has_value()) << "fp " << fp << ": " << why;
        EXPECT_EQ(*hit, resultFor(fp));
        EXPECT_TRUE(why.empty()) << why;
    }
    EXPECT_FALSE(reopened.load(keyFor(99)).has_value());
}

TEST(Manifest, LoadOnAnEmptyDirectoryIsQuietlyEmpty)
{
    const std::string dir = freshDir("manifest_empty");
    const exp::Cache cache(dir);
    for (std::uint64_t fp = 1; fp <= 3; ++fp) {
        std::string why;
        EXPECT_FALSE(cache.load(keyFor(fp), &why).has_value());
        EXPECT_TRUE(why.empty()) << why;
    }
    EXPECT_EQ(entryCount(dir), 0u);
}

TEST(RunnerResume, ServesCompletedCellsWithoutReExecuting)
{
    std::atomic<unsigned> executions{0};

    exp::RunOptions options;
    options.jobs = 2;
    options.cacheDir = freshDir("runner_resume_cache");
    {
        exp::Runner runner(options);
        const auto cold = runner.run(countingSpec(executions));
        ASSERT_EQ(cold.size(), 4u);
        EXPECT_EQ(executions.load(), 4u);
        EXPECT_EQ(runner.summary().cacheHits, 0u);
    }

    exp::Runner resumed_runner(options);
    const auto resumed = resumed_runner.run(countingSpec(executions));
    ASSERT_EQ(resumed.size(), 4u);
    EXPECT_EQ(executions.load(), 4u) << "resume re-executed cells";
    EXPECT_EQ(resumed_runner.summary().cacheHits, 4u);
    EXPECT_EQ(resumed_runner.summary().executed, 0u);
    for (std::uint64_t fp = 1; fp <= 4; ++fp)
        EXPECT_EQ(resumed[fp - 1], resultFor(fp));
}

TEST(RunnerResume, PartialCacheRecomputesOnlyTheMissingCells)
{
    const std::string dir = freshDir("runner_resume_partial");
    // A "killed" run that only completed cells 1 and 2.
    const exp::Cache cache(dir);
    cache.store(keyFor(1), resultFor(1));
    cache.store(keyFor(2), resultFor(2));

    std::atomic<unsigned> executions{0};
    exp::RunOptions options;
    options.jobs = 2;
    options.cacheDir = dir;
    exp::Runner runner(options);
    const auto results = runner.run(countingSpec(executions));
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(executions.load(), 2u);
    EXPECT_EQ(runner.summary().cacheHits, 2u);
    for (std::uint64_t fp = 1; fp <= 4; ++fp)
        EXPECT_EQ(results[fp - 1], resultFor(fp));

    // The finished run stored the cells it computed.
    for (std::uint64_t fp = 1; fp <= 4; ++fp)
        EXPECT_TRUE(cache.load(keyFor(fp)).has_value()) << "fp " << fp;
}

TEST(RunnerResume, EditedEntryIsRecomputedNotServed)
{
    std::atomic<unsigned> executions{0};
    exp::RunOptions options;
    options.jobs = 2;
    options.cacheDir = freshDir("runner_resume_edited");
    exp::Runner(options).run(countingSpec(executions));
    ASSERT_EQ(executions.load(), 4u);

    // Change one digit of cell 1's victim_rows count in place: the
    // line still parses and still names cell 1.
    const std::string path = exp::Cache(options.cacheDir)
                                 .entryPath(keyFor(1));
    std::string bytes = slurp(path);
    const std::string field = "\"victim_rows\":1";
    const std::size_t at = bytes.find(field);
    ASSERT_NE(at, std::string::npos);
    bytes[at + field.size() - 1] = '7';
    std::ofstream(path, std::ios::trunc | std::ios::binary) << bytes;

    exp::Runner runner(options);
    ::testing::internal::CaptureStderr();
    const auto results = runner.run(countingSpec(executions));
    const std::string err = ::testing::internal::GetCapturedStderr();
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0], resultFor(1)) << "the edited value was served";
    EXPECT_EQ(executions.load(), 5u);
    EXPECT_EQ(runner.summary().cacheHits, 3u);

    // One typed note, and the entry is whole again.
    const std::string note = "[cache] rejected entry: " + path;
    const std::size_t first = err.find(note);
    ASSERT_NE(first, std::string::npos) << err;
    EXPECT_EQ(err.find(note, first + 1), std::string::npos) << err;
    EXPECT_NE(err.find("ckpt-bad-payload"), std::string::npos) << err;
    const auto rewritten = exp::Cache(options.cacheDir).load(keyFor(1));
    ASSERT_TRUE(rewritten.has_value());
    EXPECT_EQ(*rewritten, resultFor(1));
}

TEST(RunnerResume, ResumedAdversarialGridMatchesColdByteForByte)
{
    const std::string out = freshDir("grid_resume_out");

    sim::ActEngineConfig base;
    base.rowsPerBank = 4096;
    base.windows = 0.05;
    const std::vector<schemes::SchemeKind> kinds = {
        schemes::SchemeKind::Graphene, schemes::SchemeKind::Para};

    exp::RunOptions options;
    options.jobs = 2;
    options.cacheDir = freshDir("grid_resume_cache");
    options.jsonlPath = out + "/cold.jsonl";
    std::vector<sim::OverheadRow> cold_rows;
    {
        exp::Runner runner(options);
        cold_rows =
            sim::runAdversarialGrid(base, kinds, 7, runner, "grid");
        EXPECT_EQ(runner.summary().cacheHits, 0u);
        EXPECT_GT(runner.summary().executed, 0u);
    }

    options.jsonlPath = out + "/resumed.jsonl";
    exp::Runner resumed_runner(options);
    const auto resumed_rows =
        sim::runAdversarialGrid(base, kinds, 7, resumed_runner,
                                "grid");
    EXPECT_EQ(resumed_runner.summary().executed, 0u);
    EXPECT_EQ(resumed_runner.summary().cacheHits,
              resumed_runner.summary().total);
    EXPECT_EQ(slurp(out + "/resumed.jsonl"),
              slurp(out + "/cold.jsonl"));
    ASSERT_EQ(resumed_rows.size(), cold_rows.size());
}

// ---- runner-level timeouts ----------------------------------------

TEST(RunnerTimeout, StuckCellTimesOutRetriesAndIsNeverRecorded)
{
    std::atomic<unsigned> attempts{0};

    exp::ExperimentSpec spec;
    spec.name = "timeout";
    exp::Cell cell;
    cell.key = keyFor(1);
    // A cell stuck until cancelled (the cooperative-budget path).
    cell.body = [&attempts](const exp::CellContext &ctx) {
        attempts.fetch_add(1);
        while (!ctx.cancel.cancelled()) {
        }
        exp::CellResult r;
        r.error = "cancelled mid-run";
        return r;
    };
    spec.cells.push_back(std::move(cell));

    exp::RunOptions options;
    options.jobs = 1;
    options.cacheDir = freshDir("runner_timeout_cache");
    options.cellTimeoutMs = 25.0;
    options.cellRetries = 1;
    exp::Runner runner(options);
    const auto results = runner.run(spec);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].skipped());
    EXPECT_NE(results[0].error.find("timeout"), std::string::npos)
        << results[0].error;
    EXPECT_EQ(attempts.load(), 2u) << "expected 1 try + 1 retry";
    EXPECT_EQ(runner.summary().timeouts, 1u);
    EXPECT_EQ(runner.summary().errors, 1u);

    // Timed-out cells are never cached: a rerun retries them.
    EXPECT_EQ(entryCount(options.cacheDir), 0u);
}

TEST(RunnerTimeout, FastCellsFinishInsideTheBudgetUntouched)
{
    std::atomic<unsigned> attempts{0};
    exp::ExperimentSpec spec;
    spec.name = "fast";
    exp::Cell cell;
    cell.key = keyFor(2);
    cell.body = [&attempts](const exp::CellContext &) {
        attempts.fetch_add(1);
        return resultFor(2);
    };
    spec.cells.push_back(std::move(cell));

    exp::RunOptions options;
    options.jobs = 1;
    options.cellTimeoutMs = 60000.0;
    exp::Runner runner(options);
    const auto results = runner.run(spec);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0], resultFor(2));
    EXPECT_EQ(attempts.load(), 1u);
    EXPECT_EQ(runner.summary().timeouts, 0u);
}

TEST(RunnerTimeout, SystemGridTimesOutRecordsNothingAndResumesIdentically)
{
    const std::string cache = freshDir("system_timeout_cache");
    const std::string out = freshDir("system_timeout_out");

    sim::SystemConfig base;
    base.numCores = 4;
    base.windows = 0.02;
    const std::vector<workloads::WorkloadSpec> suite = {
        workloads::homogeneous("lbm", 4),
        workloads::homogeneous("mcf", 4)};
    const std::vector<schemes::SchemeKind> kinds = {
        schemes::SchemeKind::Graphene, schemes::SchemeKind::Para};
    const auto run_grid = [&](const exp::RunOptions &options) {
        exp::Runner runner(options);
        const auto rows =
            sim::runOverheadGrid(base, suite, kinds, runner, "sys");
        return std::make_pair(rows, runner.summary());
    };

    exp::RunOptions options;
    options.jobs = 2;
    options.jsonlPath = out + "/cold.jsonl";
    run_grid(options);
    // Every cell runs well past the runner's budget and its first
    // token poll (every 8192 requests).
    std::ifstream cold(options.jsonlPath);
    for (std::string line; std::getline(cold, line);) {
        exp::CellKey key;
        exp::CellResult result;
        ASSERT_TRUE(exp::parseCellRecordLine(line, key, result));
        ASSERT_FALSE(result.skipped()) << result.error;
        ASSERT_GT(result.stats.requests, 4u * 8192u) << line;
    }

    // Baselines exhaust a 5 ms budget; the protected cells fed by
    // them return at once, but count as timed out too.
    options.cacheDir = cache;
    options.cellTimeoutMs = 5.0;
    options.cellRetries = 0;
    options.jsonlPath = out + "/timed.jsonl";
    const auto [rows, summary] = run_grid(options);
    ASSERT_EQ(rows.size(), 4u);
    for (const auto &row : rows) {
        EXPECT_TRUE(row.skipped());
        EXPECT_NE(row.error.find("timeout"), std::string::npos)
            << row.error;
    }
    EXPECT_EQ(summary.timeouts, 6u) << "2 baselines + 4 protected";
    EXPECT_EQ(entryCount(cache), 0u) << "a timed-out cell was cached";

    options.cellTimeoutMs = 0.0;
    options.jsonlPath = out + "/resumed.jsonl";
    EXPECT_EQ(run_grid(options).second.cacheHits, 0u);
    EXPECT_EQ(slurp(out + "/resumed.jsonl"), slurp(out + "/cold.jsonl"));
}

} // namespace
