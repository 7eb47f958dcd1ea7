/**
 * @file
 * Session-level determinism contracts: the JSONL artifact is a pure
 * function of the SessionSpec — identical across quantum sizes,
 * across checkpoint/kill/resume, and between a forked child and the
 * parent it branched from. Plus the spec's validate/fingerprint/
 * serialization surface.
 */

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.hh"
#include "ckpt/io.hh"
#include "serve/session.hh"

namespace graphene {
namespace serve {
namespace {

namespace fs = std::filesystem;

/** Self-cleaning scratch directory per test. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        _path = (fs::temp_directory_path() /
                 ("serve_test_" + tag + "_" +
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

/** A small-but-real spec: ~28K ACTs, 8 stats windows. */
SessionSpec
smallSpec(const std::string &id)
{
    SessionSpec spec;
    spec.id = id;
    spec.scheme.kind = schemes::SchemeKind::Graphene;
    spec.scheme.rowHammerThreshold = 2000;
    spec.source.family = "s4";
    spec.source.seed = 11;
    spec.rowsPerBank = 2048;
    spec.windows = 0.02;
    spec.statsWindowCycles = 192000;
    spec.chunkRows = 256;
    return spec;
}

void
runToCompletion(Session &session, std::uint64_t quantum)
{
    for (int guard = 0; guard < 100000; ++guard) {
        const Session::QuantumOutcome outcome =
            session.runQuantum(quantum);
        if (outcome == Session::QuantumOutcome::Done)
            return;
        ASSERT_NE(outcome, Session::QuantumOutcome::Failed)
            << session.failure();
    }
    FAIL() << "session never reached the horizon";
}

TEST(SessionSpec, ValidateCollectsViolations)
{
    SessionSpec spec = smallSpec("ok");
    EXPECT_TRUE(spec.validate().ok())
        << spec.validate().error().describe();

    spec.id = "bad/id"; // '/' would escape the artifact directory
    EXPECT_FALSE(spec.validate().ok());

    spec = smallSpec("x");
    spec.chunkRows = 0;
    EXPECT_FALSE(spec.validate().ok());

    spec = smallSpec("x");
    spec.source.family = "bogus";
    EXPECT_FALSE(spec.validate().ok());
}

TEST(SessionSpec, FingerprintSeesEverySemanticField)
{
    const SessionSpec base = smallSpec("a");
    SessionSpec other = base;
    EXPECT_EQ(base.fingerprint(), other.fingerprint());

    other.id = "b";
    EXPECT_NE(base.fingerprint(), other.fingerprint());

    other = base;
    other.scheme.kind = schemes::SchemeKind::Para;
    EXPECT_NE(base.fingerprint(), other.fingerprint());

    other = base;
    other.source.seed += 1;
    EXPECT_NE(base.fingerprint(), other.fingerprint());

    other = base;
    other.statsWindowCycles += 1;
    EXPECT_NE(base.fingerprint(), other.fingerprint());
}

TEST(SessionSpec, SaveLoadRoundTripsFingerprint)
{
    const SessionSpec spec = smallSpec("rt");
    ckpt::Writer w;
    spec.save(w);
    ckpt::Reader r(w.data());
    const SessionSpec back = SessionSpec::load(r);
    ASSERT_TRUE(r.finish().ok());
    EXPECT_EQ(back.fingerprint(), spec.fingerprint());
    EXPECT_EQ(back.id, spec.id);
    EXPECT_EQ(back.windowCycles(), spec.windowCycles());
}

TEST(Session, RunsToASummaryLine)
{
    TempDir dir("run");
    Session session(smallSpec("s"), dir.path(), dir.path() + "/ckpt");
    ASSERT_TRUE(session.start().ok());
    runToCompletion(session, 100000);
    EXPECT_EQ(session.state(), Session::State::Done);

    const std::string text = slurp(session.jsonlPath());
    // 8 full stats windows + 1 summary.
    EXPECT_EQ(session.linesEmitted(), 9u);
    EXPECT_NE(text.find("\"window\":0"), std::string::npos);
    EXPECT_NE(text.find("\"window\":7"), std::string::npos);
    EXPECT_NE(text.find("\"summary\":1"), std::string::npos);
    // Bounded ingest held: never more than one chunk buffered.
    EXPECT_LE(session.peakBuffered(), smallSpec("s").chunkRows);
}

TEST(Session, QuantumSizeNeverChangesTheArtifact)
{
    std::string reference;
    for (const std::uint64_t quantum : {30000u, 100000u, 1000000u}) {
        TempDir dir("quantum");
        Session session(smallSpec("q"), dir.path(),
                        dir.path() + "/ckpt");
        ASSERT_TRUE(session.start().ok());
        runToCompletion(session, quantum);
        const std::string text = slurp(session.jsonlPath());
        if (reference.empty())
            reference = text;
        else
            EXPECT_EQ(text, reference)
                << "quantum " << quantum << " changed the bytes";
    }
    EXPECT_FALSE(reference.empty());
}

TEST(Session, KillAndResumeIsByteIdentical)
{
    // Uninterrupted reference.
    TempDir ref_dir("ref");
    Session reference(smallSpec("k"), ref_dir.path(),
                      ref_dir.path() + "/ckpt");
    ASSERT_TRUE(reference.start().ok());
    runToCompletion(reference, 100000);
    const std::string expected = slurp(reference.jsonlPath());

    // Interrupted twin: a few quanta, a checkpoint, more quanta (the
    // torn tail a SIGKILL would leave), then the process "dies" — the
    // Session object is simply dropped mid-run.
    TempDir dir("kill");
    {
        Session session(smallSpec("k"), dir.path(),
                        dir.path() + "/ckpt");
        ASSERT_TRUE(session.start().ok());
        for (int i = 0; i < 4; ++i)
            ASSERT_EQ(session.runQuantum(100000),
                      Session::QuantumOutcome::Again);
        ASSERT_TRUE(session.checkpoint().ok());
        for (int i = 0; i < 3; ++i) // past the durability point
            ASSERT_EQ(session.runQuantum(100000),
                      Session::QuantumOutcome::Again);
    }

    Session resumed(smallSpec("k"), dir.path(),
                    dir.path() + "/ckpt");
    const Result<ckpt::LoadReport> report =
        resumed.startResumed();
    ASSERT_TRUE(report.ok()) << report.error().describe();
    EXPECT_FALSE(report.value().source.empty());
    runToCompletion(resumed, 100000);

    EXPECT_EQ(slurp(resumed.jsonlPath()), expected);
}

TEST(Session, ResumeWithoutACheckpointStartsFresh)
{
    TempDir dir("fresh");
    Session session(smallSpec("f"), dir.path(),
                    dir.path() + "/ckpt");
    const Result<ckpt::LoadReport> report =
        session.startResumed();
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().source.empty());
    EXPECT_EQ(session.state(), Session::State::Active);
}

TEST(Session, CorruptCheckpointFallsBackFreshWithNotes)
{
    TempDir dir("corrupt");
    const SessionSpec spec = smallSpec("c");
    fs::create_directories(dir.path() + "/ckpt");
    {
        std::ofstream os(dir.path() + "/ckpt/session_c.gckp",
                         std::ios::binary);
        os << "this is not a checkpoint";
    }
    Session session(spec, dir.path(), dir.path() + "/ckpt");
    const Result<ckpt::LoadReport> report =
        session.startResumed();
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().source.empty());
    EXPECT_FALSE(report.value().notes.empty());
    // And the fallback still produces the reference artifact.
    runToCompletion(session, 100000);
    EXPECT_EQ(session.state(), Session::State::Done);
}

TEST(Session, ForkedChildMatchesParentByteForByte)
{
    TempDir dir("fork");
    const std::string artifact = dir.path() + "/fork_child.gckp";

    SessionSpec parent_spec = smallSpec("parent");
    Session parent(parent_spec, dir.path(), dir.path() + "/ckpt");
    parent.addForkTrigger(3, artifact);
    ASSERT_TRUE(parent.start().ok());
    runToCompletion(parent, 100000);
    ASSERT_TRUE(fs::exists(artifact));

    // The artifact is framed with the parent's fingerprint.
    const Result<ckpt::Blob> blob =
        ckpt::loadFile(artifact, parent_spec.fingerprint());
    ASSERT_TRUE(blob.ok()) << blob.error().describe();

    SessionSpec child_spec = parent_spec;
    child_spec.id = "child";
    Session child(child_spec, dir.path(), dir.path() + "/ckpt");
    ASSERT_TRUE(child
                    .startForked(blob.value().payload,
                                 parent.jsonlPath())
                    .ok());
    runToCompletion(child, 100000);

    // Window lines carry no session id, so the finished artifacts
    // must be byte-identical: the fork-equivalence contract.
    EXPECT_EQ(slurp(child.jsonlPath()), slurp(parent.jsonlPath()));
}

/**
 * A session file holds the spec, so a resume can admit the session
 * from the file alone; damage to the spec, or a header that does not
 * frame it, is a typed rejection.
 */
TEST(Session, ReadSpecTakesTheSpecFromItsFile)
{
    TempDir dir("readspec");
    const std::string ckpt_dir = dir.path() + "/ckpt";
    const SessionSpec spec = smallSpec("r");
    Session session(spec, dir.path(), ckpt_dir);
    ASSERT_TRUE(session.start().ok());
    ASSERT_TRUE(session.checkpoint().ok());
    ASSERT_EQ(session.runQuantum(100000), Session::QuantumOutcome::Again);
    ASSERT_TRUE(session.checkpoint().ok());

    const Result<SessionSpec> read = Session::readSpec(ckpt_dir, "r");
    ASSERT_TRUE(read.ok()) << read.error().describe();
    EXPECT_EQ(read.value().fingerprint(), spec.fingerprint());

    // A torn current file falls back to the `.prev`.
    {
        std::ofstream os(session.ckptPath(),
                         std::ios::binary | std::ios::trunc);
        os << "torn";
    }
    const Result<SessionSpec> prev = Session::readSpec(ckpt_dir, "r");
    ASSERT_TRUE(prev.ok()) << prev.error().describe();
    EXPECT_EQ(prev.value().fingerprint(), spec.fingerprint());

    const Result<SessionSpec> absent =
        Session::readSpec(ckpt_dir, "nobody");
    ASSERT_FALSE(absent.ok());
    EXPECT_EQ(absent.error().code(), ErrorCode::NotFound);

    // Each damaged file is the only candidate for its id.
    const auto damaged = [&](const std::string &id,
                             std::uint64_t framing,
                             const std::vector<std::uint8_t> &payload) {
        EXPECT_TRUE(ckpt::saveFile(ckpt_dir + "/session_" + id + ".gckp",
                                   framing, payload)
                        .ok());
        return Session::readSpec(ckpt_dir, id);
    };
    ckpt::Writer whole;
    spec.save(whole);

    const auto says = [](const Result<SessionSpec> &read,
                         const std::string &why) {
        ASSERT_FALSE(read.ok());
        EXPECT_EQ(read.error().code(), ErrorCode::NotFound);
        EXPECT_NE(read.error().message().find(why), std::string::npos)
            << read.error().message();
    };

    // Framed by another tag (here the fork artifacts' digest).
    says(damaged("r2", spec.fingerprint(), whole.data()),
         "ckpt-config-mismatch error: the header does not frame");

    // A well-framed file filed under another id is not that session.
    fs::copy_file(session.ckptPath() + ".prev",
                  ckpt_dir + "/session_elsewhere.gckp");
    says(Session::readSpec(ckpt_dir, "elsewhere"),
         "ckpt-config-mismatch error: the header does not frame");

    const std::vector<std::uint8_t> cut(whole.data().begin(),
                                        whole.data().begin() + 12);
    says(damaged("r3", 0, cut),
         "ckpt-truncated error: checkpoint payload ended early");

    // A scheme kind past the last one fails validation, reported as
    // such rather than as a short payload.
    std::vector<std::uint8_t> bad_kind = whole.data();
    const std::size_t kind_at = 8 + spec.id.size();
    bad_kind[kind_at] = 0xff;
    says(damaged("r4", 0, bad_kind),
         "ckpt-truncated error: checkpoint payload rejected: a restored "
         "value failed validation");
}

TEST(Session, FailedSourceEndsInErrorLine)
{
    TempDir dir("fail");
    SessionSpec spec = smallSpec("e");
    spec.source.kind = SourceSpec::Kind::TraceFile;
    spec.source.path = "/nonexistent/trace.txt";
    Session session(spec, dir.path(), dir.path() + "/ckpt");
    ASSERT_TRUE(session.start().ok());
    Session::QuantumOutcome outcome = session.runQuantum(100000);
    EXPECT_EQ(outcome, Session::QuantumOutcome::Failed);
    EXPECT_EQ(session.state(), Session::State::Failed);
    EXPECT_FALSE(session.failure().empty());
    const std::string text = slurp(session.jsonlPath());
    EXPECT_NE(text.find("\"error\":"), std::string::npos);
}

} // namespace
} // namespace serve
} // namespace graphene
