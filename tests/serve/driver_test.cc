/**
 * @file
 * Service-level contracts: per-session JSONL byte-identical across
 * --jobs 1/4/16 (≥ 8 concurrent sessions), admission control typed
 * errors, fork materialization (warm and cross-scheme), graceful
 * drain on cancel plus a resume driven by the session files alone,
 * and the fork-spec grammar.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.hh"
#include "serve/driver.hh"

namespace graphene {
namespace serve {
namespace {

namespace fs = std::filesystem;

class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        _path = (fs::temp_directory_path() /
                 ("serve_drv_" + tag + "_" +
                  std::to_string(reinterpret_cast<std::uintptr_t>(
                      this))))
                    .string();
        fs::create_directories(_path);
    }
    ~TempDir() { fs::remove_all(_path); }
    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is) << path;
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

/** The CLI's tenant mix in miniature: schemes × families. */
SessionSpec
tenantSpec(unsigned index)
{
    SessionSpec spec;
    spec.id = strprintf("t%02u", index);
    const std::vector<schemes::SchemeKind> kinds =
        schemes::evaluatedSchemes();
    spec.scheme.kind = kinds[index % kinds.size()];
    spec.scheme.rowHammerThreshold = 2000;
    spec.scheme.seed = 1 + index;
    static const char *kFamilies[] = {"uniform", "s1", "s3", "s4",
                                      "worst"};
    spec.source.family =
        kFamilies[index % (sizeof(kFamilies) / sizeof(*kFamilies))];
    spec.source.param = 10;
    spec.source.seed = 1 + index;
    spec.rowsPerBank = 2048;
    spec.windows = 0.02;
    spec.statsWindowCycles = 192000;
    spec.chunkRows = 256;
    return spec;
}

/** Every regular file in @p dir, keyed by name, with its bytes and
 *  its modification time (a rewrite of the same bytes moves it). */
std::map<std::string, std::pair<std::string, fs::file_time_type>>
snapshot(const std::string &dir)
{
    std::map<std::string, std::pair<std::string, fs::file_time_type>>
        files;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.is_regular_file())
            files[entry.path().filename().string()] = {
                slurp(entry.path().string()),
                fs::last_write_time(entry.path())};
    return files;
}

DriverOptions
optionsFor(const TempDir &dir, unsigned jobs)
{
    DriverOptions opts;
    opts.jobs = jobs;
    opts.quantumCycles = 100000;
    opts.ckptEveryQuanta = 4;
    opts.outDir = dir.path();
    return opts;
}

TEST(ParseForkSpec, GrammarAndTypedErrors)
{
    const Result<ForkSpec> warm = parseForkSpec("t00@3:child");
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.value().parent, "t00");
    EXPECT_EQ(warm.value().window, 3u);
    EXPECT_EQ(warm.value().child, "child");
    EXPECT_TRUE(warm.value().scheme.empty());

    const Result<ForkSpec> cold = parseForkSpec("a@1:b:graphene");
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(cold.value().scheme, "graphene");

    for (const char *bad :
         {"", "noat", "@1:b", "a@:b", "a@x:b", "a@0:b", "a@1:",
          "a@1:b:", "a@1:b:nosuchscheme"}) {
        const Result<ForkSpec> parsed = parseForkSpec(bad);
        EXPECT_FALSE(parsed.ok()) << "'" << bad << "' parsed";
    }
}

TEST(ParseSchemeKind, CaseInsensitiveNames)
{
    EXPECT_EQ(parseSchemeKind("Graphene").value(),
              schemes::SchemeKind::Graphene);
    EXPECT_EQ(parseSchemeKind("PARA").value(),
              schemes::SchemeKind::Para);
    EXPECT_EQ(parseSchemeKind("twice").value(),
              schemes::SchemeKind::TwiCe);
    EXPECT_EQ(parseSchemeKind("none").value(),
              schemes::SchemeKind::None);
    EXPECT_FALSE(parseSchemeKind("rowpress").ok());
}

TEST(ServeDriver, AdmissionControlIsTyped)
{
    TempDir dir("admit");
    DriverOptions opts = optionsFor(dir, 1);
    opts.maxSessions = 2;
    ServeDriver driver(opts);

    ASSERT_TRUE(driver.admit(tenantSpec(0)).ok());
    const Result<void> dup = driver.admit(tenantSpec(0));
    ASSERT_FALSE(dup.ok());
    EXPECT_EQ(dup.error().code(), ErrorCode::InvalidArgument);

    SessionSpec invalid = tenantSpec(3);
    invalid.source.family = "bogus";
    const Result<void> bad = driver.admit(invalid);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code(), ErrorCode::Config);

    ASSERT_TRUE(driver.admit(tenantSpec(1)).ok());
    const Result<void> full = driver.admit(tenantSpec(2));
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(full.error().code(), ErrorCode::InvalidArgument);
}

/**
 * The headline determinism contract: 8 concurrent sessions, and the
 * per-session artifacts are byte-identical whether the service ran
 * them on 1, 4, or 16 workers.
 */
TEST(ServeDriver, JobsCountNeverChangesSessionArtifacts)
{
    const unsigned kSessions = 8;
    std::vector<std::string> reference;

    for (const unsigned jobs : {1u, 4u, 16u}) {
        TempDir dir("jobs");
        ServeDriver driver(optionsFor(dir, jobs));
        for (unsigned i = 0; i < kSessions; ++i)
            ASSERT_TRUE(driver.admit(tenantSpec(i)).ok());

        CancelToken cancel;
        const Result<ServeDriver::RunReport> report =
            driver.run(cancel);
        ASSERT_TRUE(report.ok()) << report.error().describe();
        EXPECT_EQ(report.value().completed, kSessions);
        EXPECT_EQ(report.value().failed, 0u);

        std::vector<std::string> artifacts;
        for (unsigned i = 0; i < kSessions; ++i)
            artifacts.push_back(
                slurp(dir.path() + "/" +
                      strprintf("session_t%02u.jsonl", i)));
        if (reference.empty()) {
            reference = artifacts;
        } else {
            for (unsigned i = 0; i < kSessions; ++i)
                EXPECT_EQ(artifacts[i], reference[i])
                    << "session t" << i << " differs at jobs="
                    << jobs;
        }
    }
}

/** Warm fork: the child continues the parent's engine state and
 *  inherits its durable prefix, so the finished artifacts match. */
TEST(ServeDriver, WarmForkChildEqualsParent)
{
    TempDir dir("warmfork");
    DriverOptions opts = optionsFor(dir, 2);
    opts.forks.push_back(
        parseForkSpec("t00@2:branch").value());
    ServeDriver driver(opts);
    ASSERT_TRUE(driver.admit(tenantSpec(0)).ok());
    ASSERT_TRUE(driver.admit(tenantSpec(1)).ok());

    CancelToken cancel;
    const Result<ServeDriver::RunReport> report = driver.run(cancel);
    ASSERT_TRUE(report.ok()) << report.error().describe();
    EXPECT_EQ(report.value().forked, 1u);
    EXPECT_EQ(report.value().completed, 3u);

    EXPECT_EQ(slurp(dir.path() + "/session_branch.jsonl"),
              slurp(dir.path() + "/session_t00.jsonl"));
}

/** Cross-scheme fork: engine state cannot transplant, so the child
 *  is a cold run of the same stream under the new scheme — and must
 *  byte-match an explicitly fresh run of that spec. */
TEST(ServeDriver, CrossSchemeForkEqualsFreshRun)
{
    TempDir dir("coldfork");
    DriverOptions opts = optionsFor(dir, 2);
    opts.forks.push_back(
        parseForkSpec("t00@2:regrown:graphene").value());
    ServeDriver driver(opts);
    ASSERT_TRUE(driver.admit(tenantSpec(0)).ok());

    CancelToken cancel;
    const Result<ServeDriver::RunReport> report = driver.run(cancel);
    ASSERT_TRUE(report.ok()) << report.error().describe();
    EXPECT_EQ(report.value().forked, 1u);

    // Fresh run of the identical stream spec under Graphene. Window
    // lines carry no id, so the bytes must agree exactly.
    TempDir fresh_dir("coldref");
    ServeDriver fresh(optionsFor(fresh_dir, 1));
    SessionSpec regrown = tenantSpec(0);
    regrown.id = "ref";
    regrown.scheme.kind = schemes::SchemeKind::Graphene;
    ASSERT_TRUE(fresh.admit(regrown).ok());
    CancelToken cancel2;
    ASSERT_TRUE(fresh.run(cancel2).ok());

    EXPECT_EQ(slurp(dir.path() + "/session_regrown.jsonl"),
              slurp(fresh_dir.path() + "/session_ref.jsonl"));
}

/**
 * Cancel mid-service, then resume from the session files: whatever
 * instant the drain hit, the resumed service must finish every
 * session with byte-identical artifacts. (The CI soak leg does the
 * same dance with a real SIGKILL.)
 */
TEST(ServeDriver, CancelThenResumeIsByteIdentical)
{
    const unsigned kSessions = 4;

    // Uninterrupted reference artifacts.
    TempDir ref_dir("drainref");
    std::vector<std::string> expected;
    {
        ServeDriver driver(optionsFor(ref_dir, 2));
        for (unsigned i = 0; i < kSessions; ++i)
            ASSERT_TRUE(driver.admit(tenantSpec(i)).ok());
        CancelToken cancel;
        ASSERT_TRUE(driver.run(cancel).ok());
        for (unsigned i = 0; i < kSessions; ++i)
            expected.push_back(
                slurp(ref_dir.path() + "/" +
                      strprintf("session_t%02u.jsonl", i)));
    }

    // Interrupted service: cancel fires from another thread at an
    // arbitrary point; run() drains (checkpoints every session).
    TempDir dir("drain");
    {
        ServeDriver driver(optionsFor(dir, 2));
        for (unsigned i = 0; i < kSessions; ++i)
            ASSERT_TRUE(driver.admit(tenantSpec(i)).ok());
        CancelToken cancel;
        std::thread trigger([&cancel]() {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(30));
            cancel.cancel();
        });
        const Result<ServeDriver::RunReport> report =
            driver.run(cancel);
        trigger.join();
        ASSERT_TRUE(report.ok()) << report.error().describe();
    }

    // Resume rebuilds the roster from the session files alone — no
    // sessions re-admitted here — and finishes the job.
    {
        DriverOptions opts = optionsFor(dir, 2);
        opts.resume = true;
        ServeDriver driver(opts);
        CancelToken cancel;
        const Result<ServeDriver::RunReport> report =
            driver.run(cancel);
        ASSERT_TRUE(report.ok()) << report.error().describe();
        EXPECT_EQ(report.value().completed, kSessions);
        EXPECT_EQ(report.value().failed, 0u);
    }

    for (unsigned i = 0; i < kSessions; ++i)
        EXPECT_EQ(slurp(dir.path() + "/" +
                        strprintf("session_t%02u.jsonl", i)),
                  expected[i])
            << "session t" << i << " diverged across drain+resume";
}

/** Run @p opts over tenants 0..sessions-1 to completion. */
ServeDriver::RunReport
runService(const DriverOptions &opts, unsigned sessions)
{
    ServeDriver driver(opts);
    for (unsigned i = 0; i < sessions; ++i)
        EXPECT_TRUE(driver.admit(tenantSpec(i)).ok());
    CancelToken cancel;
    const Result<ServeDriver::RunReport> report = driver.run(cancel);
    EXPECT_TRUE(report.ok()) << report.error().describe();
    return report.ok() ? report.value() : ServeDriver::RunReport{};
}

/**
 * Every session finishes before its first periodic checkpoint; the
 * finish-time write still records it, so a resume restores each one
 * as done, runs nothing and rewrites no file: neither a checkpoint
 * nor a session JSONL.
 */
TEST(ServeDriver, FinishedSessionIsNotRerunOnResume)
{
    const unsigned kSessions = 4;
    TempDir dir("finished");
    DriverOptions opts = optionsFor(dir, 2);
    opts.ckptEveryQuanta = 1000; // longer than any session runs
    ASSERT_EQ(runService(opts, kSessions).completed, kSessions);

    const std::string ckpt = dir.path() + "/ckpt";
    for (unsigned i = 0; i < kSessions; ++i)
        ASSERT_TRUE(fs::exists(
            ckpt + strprintf("/session_t%02u.gckp", i)));
    const auto files = snapshot(ckpt);
    const auto jsonl = snapshot(dir.path());
    ASSERT_EQ(jsonl.size(), kSessions);

    opts.resume = true;
    const ServeDriver::RunReport report = runService(opts, 0);
    EXPECT_EQ(report.completed, kSessions);
    EXPECT_EQ(report.resumed, kSessions);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(snapshot(ckpt), files);
    EXPECT_EQ(snapshot(dir.path()), jsonl);
}

/** A fork child the resume never names comes back from its own
 *  session file, written when it was materialized. */
TEST(ServeDriver, ResumeRecoversAForkChildFromItsFile)
{
    TempDir dir("forkresume");
    DriverOptions opts = optionsFor(dir, 2);
    opts.forks.push_back(parseForkSpec("t00@2:branch").value());
    ASSERT_EQ(runService(opts, 2).forked, 1u);
    const std::string child = dir.path() + "/session_branch.jsonl";
    const std::string expected = slurp(child);

    opts.forks.clear();
    opts.resume = true;
    ServeDriver driver(opts);
    CancelToken cancel;
    const Result<ServeDriver::RunReport> report = driver.run(cancel);
    ASSERT_TRUE(report.ok()) << report.error().describe();
    ASSERT_NE(driver.findSession("branch"), nullptr);
    EXPECT_EQ(driver.findSession("branch")->state(),
              Session::State::Done);
    EXPECT_EQ(report.value().completed, 3u);
    EXPECT_EQ(slurp(child), expected);
}

/**
 * The listing takes ids from `session_*.gckp` and `.prev` alike: a
 * torn current file yields its spec from the `.prev`, and an id whose
 * current file is gone (a crash between rotation and write) is still
 * resumed. Both rerun from the older state to the same bytes.
 */
TEST(ServeDriver, ResumeListsTornAndPrevOnlySessions)
{
    const unsigned kSessions = 3;
    TempDir dir("listing");
    DriverOptions opts = optionsFor(dir, 2);
    ASSERT_EQ(runService(opts, kSessions).completed, kSessions);
    std::vector<std::string> expected;
    for (unsigned i = 0; i < kSessions; ++i)
        expected.push_back(slurp(
            dir.path() + strprintf("/session_t%02u.jsonl", i)));

    const std::string ckpt = dir.path() + "/ckpt";
    ASSERT_TRUE(fs::exists(ckpt + "/session_t00.gckp.prev"));
    ASSERT_TRUE(fs::exists(ckpt + "/session_t01.gckp.prev"));
    {
        std::ofstream torn(ckpt + "/session_t00.gckp",
                           std::ios::binary | std::ios::trunc);
        torn << "torn";
    }
    fs::remove(ckpt + "/session_t01.gckp");

    opts.resume = true;
    ServeDriver driver(opts);
    CancelToken cancel;
    const Result<ServeDriver::RunReport> report = driver.run(cancel);
    ASSERT_TRUE(report.ok()) << report.error().describe();
    EXPECT_EQ(driver.sessionCount(), kSessions);
    EXPECT_NE(driver.findSession("t00"), nullptr);
    EXPECT_NE(driver.findSession("t01"), nullptr);
    EXPECT_EQ(report.value().completed, kSessions);
    EXPECT_EQ(report.value().resumed, kSessions);
    bool torn_noted = false;
    for (const std::string &note : report.value().notes)
        torn_noted = torn_noted ||
                     (note.find("t00: ") == 0 &&
                      note.find("session_t00.gckp:") !=
                          std::string::npos);
    EXPECT_TRUE(torn_noted) << "the torn file leaves no note";
    for (unsigned i = 0; i < kSessions; ++i)
        EXPECT_EQ(slurp(dir.path() +
                        strprintf("/session_t%02u.jsonl", i)),
                  expected[i])
            << "session t" << i;
}

/**
 * A session whose start fails leaves a file holding its spec alone,
 * so a resume (admitting nothing) retries it and reports it again.
 */
TEST(ServeDriver, FailedStartIsRetriedOnResume)
{
    TempDir dir("badstart");
    DriverOptions opts = optionsFor(dir, 1);
    // The JSONL directory is a regular file, so no session can open
    // its artifact; the checkpoint directory is fine.
    opts.ckptDir = dir.path() + "/ckpt";
    opts.outDir = dir.path() + "/not_a_dir";
    { std::ofstream(opts.outDir) << "x"; }

    const ServeDriver::RunReport first = runService(opts, 1);
    EXPECT_EQ(first.failed, 1u);
    ASSERT_TRUE(fs::exists(opts.ckptDir + "/session_t00.gckp"));

    opts.resume = true;
    ServeDriver driver(opts);
    CancelToken cancel;
    const Result<ServeDriver::RunReport> report = driver.run(cancel);
    ASSERT_TRUE(report.ok()) << report.error().describe();
    ASSERT_NE(driver.findSession("t00"), nullptr);
    EXPECT_EQ(report.value().failed, 1u);
    EXPECT_EQ(report.value().resumed, 0u);
}

/** A failed session is service data, not a service error. */
TEST(ServeDriver, FailedSessionIsReportedNotFatal)
{
    TempDir dir("fail");
    ServeDriver driver(optionsFor(dir, 1));
    SessionSpec broken = tenantSpec(0);
    broken.source.kind = SourceSpec::Kind::TraceFile;
    broken.source.path = "/nonexistent/trace.txt";
    ASSERT_TRUE(driver.admit(broken).ok());
    ASSERT_TRUE(driver.admit(tenantSpec(1)).ok());

    CancelToken cancel;
    const Result<ServeDriver::RunReport> report = driver.run(cancel);
    ASSERT_TRUE(report.ok()) << report.error().describe();
    EXPECT_EQ(report.value().failed, 1u);
    EXPECT_EQ(report.value().completed, 1u);
}

} // namespace
} // namespace serve
} // namespace graphene
