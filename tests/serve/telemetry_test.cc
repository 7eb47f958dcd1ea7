/**
 * @file
 * Service telemetry contracts (DESIGN.md §16): the drain-time
 * artifacts (rollup.jsonl, alerts.jsonl, metrics.prom, status.json)
 * are byte-identical across --jobs 1/4/16 and across cancel+resume;
 * alert firing is deterministic even with a fault-injected session
 * in the mix; volatile context stays in the status.meta.json
 * sidecar; and disabled telemetry writes nothing at all. Every test
 * runs in both builds: under GRAPHENE_OBS_OFF the driver writes no
 * telemetry file, which artifacts() asserts.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.hh"
#include "obs/obs.hh"
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
                 ("serve_tel_" + tag + "_" +
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

/** The telemetry artifacts under the byte-identity contract. The
 *  status.meta.json sidecar is deliberately absent: wall-clock,
 *  jobs count and refresh ordinal live there so these can be
 *  compared. */
const char *const kArtifacts[] = {"rollup.jsonl", "alerts.jsonl",
                                  "metrics.prom", "status.json"};

/** The artifacts in @p dir, in kArtifacts order. The driver writes
 *  them exactly when telemetry is compiled in (obs::kEnabled); an
 *  absent one reads as empty. */
std::vector<std::string>
artifacts(const TempDir &dir)
{
    std::vector<std::string> out;
    for (const char *name : kArtifacts) {
        const std::string path = dir.path() + "/" + name;
        EXPECT_EQ(fs::exists(path), obs::kEnabled) << name;
        out.push_back(fs::exists(path) ? slurp(path) : std::string());
    }
    return out;
}

std::string
writeRules(const TempDir &dir)
{
    const std::string path = dir.path() + "/rules.txt";
    std::ofstream os(path);
    os << "# soak watchers\n"
       << "victims: victim_rows_refreshed > 0 for 2\n"
       << "hot: acts > 0\n"
       << "full: buffered_rows >= chunk\n";
    return path;
}

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

DriverOptions
telemetryOptions(const TempDir &dir, unsigned jobs,
                 const std::string &rules)
{
    DriverOptions opts;
    opts.jobs = jobs;
    opts.quantumCycles = 100000;
    opts.ckptEveryQuanta = 4;
    opts.outDir = dir.path();
    opts.telemetry = true;
    opts.alertRules = rules;
    // Exercise the live refresh path too (its output is transient;
    // only the drain-time snapshot is byte-compared).
    opts.statusEveryTurns = 4;
    return opts;
}

/**
 * The tentpole determinism contract: 8 sessions over >= 3 schemes,
 * and every drain-time telemetry artifact is byte-identical whether
 * the service ran on 1, 4, or 16 workers.
 */
TEST(ServeTelemetry, ArtifactsAreJobsInvariant)
{
    const unsigned kSessions = 8;
    std::vector<std::string> reference;

    for (const unsigned jobs : {1u, 4u, 16u}) {
        TempDir dir("jobs");
        ServeDriver driver(
            telemetryOptions(dir, jobs, writeRules(dir)));
        for (unsigned i = 0; i < kSessions; ++i)
            ASSERT_TRUE(driver.admit(tenantSpec(i)).ok());

        CancelToken cancel;
        const Result<ServeDriver::RunReport> report =
            driver.run(cancel);
        ASSERT_TRUE(report.ok()) << report.error().describe();
        EXPECT_EQ(report.value().completed, kSessions);
        // The rules above fire on every healthy session; the
        // drain-time tally is telemetry output.
        EXPECT_EQ(report.value().alertsFired > 0, obs::kEnabled);

        const std::vector<std::string> got = artifacts(dir);
        if (reference.empty()) {
            reference = got;
        } else {
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(got[i], reference[i])
                    << kArtifacts[i] << " differs at jobs=" << jobs;
        }

        // The volatile sidecar exists but is exempt from the
        // comparison: that is where jobs/wall-clock live.
        const std::string meta_path = dir.path() + "/status.meta.json";
        ASSERT_EQ(fs::exists(meta_path), obs::kEnabled);
        if (!obs::kEnabled)
            continue;
        const std::string meta = slurp(meta_path);
        EXPECT_NE(meta.find("\"volatile\":true"), std::string::npos);
        EXPECT_NE(meta.find("\"jobs\":" + std::to_string(jobs)),
                  std::string::npos);
    }
}

/** A fault-injected (unstartable) session must not perturb the
 *  other tenants' telemetry, and its failure must be reported
 *  identically on every jobs count. */
TEST(ServeTelemetry, FaultInjectedSessionIsDeterministic)
{
    std::vector<std::string> reference;
    for (const unsigned jobs : {1u, 4u}) {
        TempDir dir("fault");
        ServeDriver driver(
            telemetryOptions(dir, jobs, writeRules(dir)));
        SessionSpec broken = tenantSpec(0);
        broken.source.kind = SourceSpec::Kind::TraceFile;
        broken.source.path = dir.path() + "/corrupt.trace";
        {
            std::ofstream os(broken.source.path);
            os << "this is not a trace line\n";
        }
        ASSERT_TRUE(driver.admit(broken).ok());
        for (unsigned i = 1; i < 4; ++i)
            ASSERT_TRUE(driver.admit(tenantSpec(i)).ok());

        CancelToken cancel;
        const Result<ServeDriver::RunReport> report =
            driver.run(cancel);
        ASSERT_TRUE(report.ok()) << report.error().describe();
        EXPECT_EQ(report.value().failed, 1u);
        EXPECT_EQ(report.value().completed, 3u);

        const std::vector<std::string> got = artifacts(dir);
        const std::string &status = got.back(); // status.json
        EXPECT_EQ(status.find("\"state\":\"failed\"") !=
                      std::string::npos,
                  obs::kEnabled);
        EXPECT_EQ(status.find("\"failed\":1") != std::string::npos,
                  obs::kEnabled);

        if (reference.empty())
            reference = got;
        else
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(got[i], reference[i])
                    << kArtifacts[i] << " differs at jobs=" << jobs;
    }
}

/** Kill-and-resume equivalence extends to telemetry: a cancelled
 *  run resumed from its session files produces the same drain-time
 *  artifacts as an uninterrupted one. */
TEST(ServeTelemetry, CancelThenResumeKeepsArtifactsByteIdentical)
{
    const unsigned kSessions = 4;

    TempDir ref_dir("telref");
    std::vector<std::string> expected;
    {
        ServeDriver driver(telemetryOptions(
            ref_dir, 2, writeRules(ref_dir)));
        for (unsigned i = 0; i < kSessions; ++i)
            ASSERT_TRUE(driver.admit(tenantSpec(i)).ok());
        CancelToken cancel;
        ASSERT_TRUE(driver.run(cancel).ok());
        expected = artifacts(ref_dir);
    }

    TempDir dir("telresume");
    const std::string rules = writeRules(dir);
    {
        ServeDriver driver(telemetryOptions(dir, 2, rules));
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
    {
        DriverOptions opts = telemetryOptions(dir, 2, rules);
        opts.resume = true;
        ServeDriver driver(opts);
        CancelToken cancel;
        const Result<ServeDriver::RunReport> report =
            driver.run(cancel);
        ASSERT_TRUE(report.ok()) << report.error().describe();
        EXPECT_EQ(report.value().completed, kSessions);
    }

    const std::vector<std::string> got = artifacts(dir);
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(got[i], expected[i])
            << kArtifacts[i] << " diverged across drain+resume";
}

/** Telemetry off (the library default) leaves the out dir free of
 *  telemetry artifacts entirely. */
TEST(ServeTelemetry, DisabledWritesNothing)
{
    TempDir dir("off");
    DriverOptions opts;
    opts.jobs = 2;
    opts.quantumCycles = 100000;
    opts.outDir = dir.path();
    ServeDriver driver(opts);
    for (unsigned i = 0; i < 2; ++i)
        ASSERT_TRUE(driver.admit(tenantSpec(i)).ok());
    CancelToken cancel;
    ASSERT_TRUE(driver.run(cancel).ok());
    for (const char *name : kArtifacts)
        EXPECT_FALSE(fs::exists(dir.path() + "/" + name)) << name;
    EXPECT_FALSE(fs::exists(dir.path() + "/status.meta.json"));
}

} // namespace
} // namespace serve
} // namespace graphene
