/**
 * @file
 * Crash-resume manifest unit tests plus the runner-level resume and
 * timeout contracts:
 *
 *  - recorded cells round-trip through persist()/load() and survive
 *    a torn newest file via the `.prev` rotation fallback;
 *  - a manifest written by a different code version is rejected as a
 *    typed config mismatch, never resumed from;
 *  - a resumed run serves completed cells without re-executing them
 *    and reproduces the cold JSONL artifact byte for byte;
 *  - a stuck cell exhausts its wall-clock budget, is retried the
 *    bounded number of times, reports a Timeout-typed error, and is
 *    never recorded — a later resume retries it from scratch;
 *  - system-grid cells honour the budget too, a cell whose baseline
 *    timed out is itself a timeout, and a budget-free resume then
 *    reproduces the cold artifact;
 *  - a manifest whose fingerprints persist() could not have written
 *    (duplicate or out of order) is rejected.
 */

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.hh"
#include "ckpt/io.hh"
#include "common/cancel.hh"
#include "exp/manifest.hh"
#include "exp/runner.hh"
#include "sim/experiment.hh"

namespace {

using namespace graphene;

constexpr const char *kTag = "manifest-test-v1";

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
    return {"manifest-test", "w" + std::to_string(fp),
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

TEST(Manifest, RoundTripsRecordedCells)
{
    const std::string dir = freshDir("manifest_roundtrip");
    {
        exp::Manifest m(dir, kTag);
        for (std::uint64_t fp = 1; fp <= 3; ++fp)
            m.record(keyFor(fp), resultFor(fp));
        const Result<void> saved = m.persist();
        ASSERT_TRUE(saved.ok()) << saved.error().describe();
    }
    exp::Manifest reloaded(dir, kTag);
    const ckpt::LoadReport report = reloaded.load();
    EXPECT_EQ(reloaded.size(), 3u);
    EXPECT_EQ(report.source, exp::Manifest::pathFor(dir));
    EXPECT_TRUE(report.notes.empty());
    for (std::uint64_t fp = 1; fp <= 3; ++fp) {
        const auto hit = reloaded.lookup(keyFor(fp));
        ASSERT_TRUE(hit.has_value()) << "fp " << fp;
        EXPECT_EQ(*hit, resultFor(fp));
    }
    EXPECT_FALSE(reloaded.lookup(keyFor(99)).has_value());
}

TEST(Manifest, LoadOnAnEmptyDirectoryIsQuietlyEmpty)
{
    const std::string dir = freshDir("manifest_empty");
    exp::Manifest m(dir, kTag);
    const ckpt::LoadReport report = m.load();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_TRUE(report.source.empty());
    EXPECT_TRUE(report.notes.empty());
}

TEST(Manifest, RejectsAManifestFromADifferentCodeVersion)
{
    const std::string dir = freshDir("manifest_version");
    {
        exp::Manifest m(dir, "old-code-version");
        m.record(keyFor(1), resultFor(1));
        ASSERT_TRUE(m.persist().ok());
    }
    exp::Manifest m(dir, kTag);
    const ckpt::LoadReport report = m.load();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_TRUE(report.source.empty());
    ASSERT_FALSE(report.notes.empty());
    EXPECT_NE(report.notes.front().find("mismatch"),
              std::string::npos)
        << report.notes.front();
}

TEST(Manifest, FallsBackToPrevWhenTheNewestFileIsTorn)
{
    const std::string dir = freshDir("manifest_torn");
    exp::Manifest m(dir, kTag);
    m.record(keyFor(1), resultFor(1));
    ASSERT_TRUE(m.persist().ok()); // newest: {1}
    m.record(keyFor(2), resultFor(2));
    ASSERT_TRUE(m.persist().ok()); // newest: {1,2}, .prev: {1}

    // Tear the newest file mid-write (a crash between rotate and
    // rename cannot actually produce this — the write is atomic —
    // but disk corruption can).
    {
        std::ofstream torn(exp::Manifest::pathFor(dir),
                           std::ios::trunc | std::ios::binary);
        torn << "GCKP truncated";
    }

    exp::Manifest reloaded(dir, kTag);
    const ckpt::LoadReport report = reloaded.load();
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_EQ(report.source, exp::Manifest::pathFor(dir) + ".prev");
    ASSERT_FALSE(report.notes.empty());
    EXPECT_TRUE(reloaded.lookup(keyFor(1)).has_value());
    EXPECT_FALSE(reloaded.lookup(keyFor(2)).has_value());
}

/** Overwrite @p dir's manifest with a hand-built payload listing
 *  @p fps in the given order, framed like a real persist(). */
void
writeRecords(const std::string &dir,
             const std::vector<std::uint64_t> &fps)
{
    const std::string path = exp::Manifest::pathFor(dir);
    exp::Manifest m(dir, kTag);
    ASSERT_TRUE(m.persist().ok());
    const Result<ckpt::Blob> framing =
        ckpt::loadFile(path, std::nullopt);
    ASSERT_TRUE(framing.ok());
    ckpt::Writer w;
    w.u64(fps.size());
    for (const std::uint64_t fp : fps) {
        w.u64(fp);
        w.str(exp::cellRecordLine(keyFor(fp), resultFor(fp)));
    }
    ASSERT_TRUE(ckpt::saveFile(path, framing.value().configFingerprint,
                               w.data())
                    .ok());
    std::filesystem::remove(path + ".prev");
}

TEST(Manifest, RejectsDuplicateOrUnsortedCellFingerprints)
{
    const std::string dir = freshDir("manifest_dupes");
    writeRecords(dir, {1, 2});
    exp::Manifest sane(dir, kTag);
    ASSERT_FALSE(sane.load().source.empty());
    EXPECT_EQ(sane.size(), 2u);

    // persist() writes each fingerprint once, ascending; anything
    // else is not its output and must not be resumed from.
    for (const auto &fps : {std::vector<std::uint64_t>{1, 1},
                            std::vector<std::uint64_t>{2, 1}}) {
        writeRecords(dir, fps);
        exp::Manifest m(dir, kTag);
        const ckpt::LoadReport report = m.load();
        EXPECT_TRUE(report.source.empty()) << fps[0] << "," << fps[1];
        ASSERT_EQ(report.notes.size(), 1u);
        EXPECT_NE(report.notes[0].find("ckpt-truncated"),
                  std::string::npos)
            << report.notes[0];
        EXPECT_EQ(m.size(), 0u);
    }
}

// ---- runner-level resume ------------------------------------------

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

TEST(RunnerResume, ServesCompletedCellsWithoutReExecuting)
{
    const std::string ckpt = freshDir("runner_resume_ckpt");
    std::atomic<unsigned> executions{0};

    exp::RunOptions options;
    options.jobs = 2;
    options.versionTag = kTag;
    options.ckptDir = ckpt;
    {
        exp::Runner runner(options);
        const auto cold = runner.run(countingSpec(executions));
        ASSERT_EQ(cold.size(), 4u);
        EXPECT_EQ(executions.load(), 4u);
        EXPECT_EQ(runner.summary().resumed, 0u);
    }

    options.resume = true;
    exp::Runner resumed_runner(options);
    const auto resumed = resumed_runner.run(countingSpec(executions));
    ASSERT_EQ(resumed.size(), 4u);
    EXPECT_EQ(executions.load(), 4u) << "resume re-executed cells";
    EXPECT_EQ(resumed_runner.summary().resumed, 4u);
    EXPECT_EQ(resumed_runner.summary().executed, 0u);
    for (std::uint64_t fp = 1; fp <= 4; ++fp)
        EXPECT_EQ(resumed[fp - 1], resultFor(fp));
}

TEST(RunnerResume, PartialManifestRecomputesOnlyTheMissingCells)
{
    const std::string ckpt = freshDir("runner_resume_partial");
    // A "crashed" run that only completed cells 1 and 2.
    {
        exp::Manifest m(ckpt, kTag);
        m.record(keyFor(1), resultFor(1));
        m.record(keyFor(2), resultFor(2));
        ASSERT_TRUE(m.persist().ok());
    }

    std::atomic<unsigned> executions{0};
    exp::RunOptions options;
    options.jobs = 2;
    options.versionTag = kTag;
    options.ckptDir = ckpt;
    options.resume = true;
    exp::Runner runner(options);
    const auto results = runner.run(countingSpec(executions));
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(executions.load(), 2u);
    EXPECT_EQ(runner.summary().resumed, 2u);
    for (std::uint64_t fp = 1; fp <= 4; ++fp)
        EXPECT_EQ(results[fp - 1], resultFor(fp));

    // The finished run persisted a now-complete manifest.
    exp::Manifest after(ckpt, kTag);
    after.load();
    EXPECT_EQ(after.size(), 4u);
}

TEST(RunnerResume, ResumedAdversarialGridMatchesColdByteForByte)
{
    const std::string ckpt = freshDir("grid_resume_ckpt");
    const std::string out = freshDir("grid_resume_out");

    sim::ActEngineConfig base;
    base.rowsPerBank = 4096;
    base.windows = 0.05;
    const std::vector<schemes::SchemeKind> kinds = {
        schemes::SchemeKind::Graphene, schemes::SchemeKind::Para};

    exp::RunOptions options;
    options.jobs = 2;
    options.versionTag = kTag;
    options.ckptDir = ckpt;
    options.jsonlPath = out + "/cold.jsonl";
    std::vector<sim::OverheadRow> cold_rows;
    {
        exp::Runner runner(options);
        cold_rows =
            sim::runAdversarialGrid(base, kinds, 7, runner, "grid");
        EXPECT_EQ(runner.summary().resumed, 0u);
        EXPECT_GT(runner.summary().executed, 0u);
    }

    options.resume = true;
    options.jsonlPath = out + "/resumed.jsonl";
    exp::Runner resumed_runner(options);
    const auto resumed_rows =
        sim::runAdversarialGrid(base, kinds, 7, resumed_runner,
                                "grid");
    EXPECT_EQ(resumed_runner.summary().executed, 0u);
    EXPECT_EQ(resumed_runner.summary().resumed,
              resumed_runner.summary().total);
    EXPECT_EQ(slurp(out + "/resumed.jsonl"),
              slurp(out + "/cold.jsonl"));
    ASSERT_EQ(resumed_rows.size(), cold_rows.size());
}

// ---- runner-level timeouts ----------------------------------------

TEST(RunnerTimeout, StuckCellTimesOutRetriesAndIsNeverRecorded)
{
    const std::string ckpt = freshDir("runner_timeout_ckpt");
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
    options.versionTag = kTag;
    options.ckptDir = ckpt;
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

    // Timed-out cells are never recorded: a resume retries them.
    exp::Manifest after(ckpt, kTag);
    after.load();
    EXPECT_EQ(after.size(), 0u);
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
    const std::string ckpt = freshDir("system_timeout_ckpt");
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
    options.versionTag = kTag;
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
    options.ckptDir = ckpt;
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
    exp::Manifest after(ckpt, kTag);
    after.load();
    EXPECT_EQ(after.size(), 0u) << "a timed-out cell was recorded";

    options.cellTimeoutMs = 0.0;
    options.resume = true;
    options.jsonlPath = out + "/resumed.jsonl";
    EXPECT_EQ(run_grid(options).second.resumed, 0u);
    EXPECT_EQ(slurp(out + "/resumed.jsonl"), slurp(out + "/cold.jsonl"));
}

} // namespace
