/**
 * @file
 * The kill-and-resume equivalence property (tier-1, DESIGN.md §14):
 * for every protection scheme, running an ACT-stream experiment to
 * completion must be indistinguishable from checkpointing it at an
 * arbitrary cycle, discarding the live engine, restoring a fresh one
 * from the serialized bytes, and continuing — identical result
 * fields, identical metrics series. The checkpoint cycles are fuzzed
 * per scheme from a seeded RNG so every run lands mid-tREFW with a
 * partial refresh rotation and live tracker state in flight.
 *
 * The CI acceptance leg (ckpt-resume job) states the same property
 * end-to-end: SIGKILL a fig8 bench mid-run, resume from the latest
 * auto-checkpoint, and byte-diff the JSONL artifacts.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "ckpt/io.hh"
#include "common/random.hh"
#include "obs/obs.hh"
#include "sim/act_engine.hh"

namespace graphene {
namespace sim {
namespace {

ActEngineConfig
engineConfig(schemes::SchemeKind kind)
{
    ActEngineConfig c;
    c.scheme.kind = kind;
    c.rowsPerBank = 8192;
    c.scheme.rowsPerBank = 8192;
    // 0.6 windows crosses Graphene's k = 2 reset boundary at
    // tREFW / 2, so resumed runs must reproduce a mid-stream
    // tracker reset too.
    c.windows = 0.6;
    return c;
}

/** A stateful pattern (round-robin base + RNG noise) per scheme. */
std::unique_ptr<workloads::ActPattern>
patternFor(const ActEngineConfig &c)
{
    return workloads::patterns::s2(10, c.rowsPerBank, 17);
}

void
expectIdentical(const ActEngineResult &a, const ActEngineResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.acts, b.acts) << what;
    EXPECT_EQ(a.victimRowsRefreshed, b.victimRowsRefreshed) << what;
    EXPECT_EQ(a.nrrEvents, b.nrrEvents) << what;
    EXPECT_EQ(a.refreshCommands, b.refreshCommands) << what;
    EXPECT_EQ(a.bitFlips, b.bitFlips) << what;
    // Bit-exact, not approximate: the checkpoint stores doubles as
    // their IEEE-754 bit patterns and the resumed computation must
    // replay the identical operation sequence.
    EXPECT_EQ(a.peakDisturbance, b.peakDisturbance) << what;
    EXPECT_EQ(a.refreshEnergyOverhead, b.refreshEnergyOverhead)
        << what;
    EXPECT_EQ(a.windows, b.windows) << what;
}

class KillResume
    : public ::testing::TestWithParam<schemes::SchemeKind>
{
};

TEST_P(KillResume, ResumedRunMatchesUninterrupted)
{
    const schemes::SchemeKind kind = GetParam();
    const ActEngineConfig config = engineConfig(kind);

    // Uninterrupted reference run.
    auto ref_pattern = patternFor(config);
    ActStreamEngine reference(config, *ref_pattern);
    const ActEngineResult want = reference.run();

    // Fuzz checkpoint cycles across the horizon (seeded per scheme).
    Rng fuzz(0x9e3779b9u + static_cast<std::uint64_t>(kind));
    const std::uint64_t horizon = static_cast<std::uint64_t>(
        static_cast<double>(config.timing.cREFW().value()) *
        config.windows);

    for (int trial = 0; trial < 2; ++trial) {
        const Cycle stop{1 + fuzz.nextRange(horizon - 1)};

        // Run a victim engine up to the kill point and checkpoint.
        auto killed_pattern = patternFor(config);
        ActStreamEngine killed(config, *killed_pattern);
        killed.runUntil(stop);
        const std::vector<std::uint8_t> blob = killed.saveCheckpoint();
        // The live engine and its pattern are now discarded — resume
        // must work from the bytes alone.

        auto resumed_pattern = patternFor(config);
        ActStreamEngine resumed(config, *resumed_pattern);
        const Result<void> restored = resumed.restoreCheckpoint(blob);
        ASSERT_TRUE(restored.ok())
            << schemes::schemeKindName(kind) << " @" << stop.value()
            << ": " << restored.error().describe();

        while (resumed.step()) {
        }
        expectIdentical(want, resumed.finish(),
                        schemes::schemeKindName(kind) + " @cycle " +
                            std::to_string(stop.value()));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, KillResume,
    ::testing::Values(schemes::SchemeKind::None,
                      schemes::SchemeKind::Graphene,
                      schemes::SchemeKind::Para,
                      schemes::SchemeKind::ProHit,
                      schemes::SchemeKind::MrLoc,
                      schemes::SchemeKind::Cbt,
                      schemes::SchemeKind::TwiCe),
    [](const ::testing::TestParamInfo<schemes::SchemeKind> &info) {
        return schemes::schemeKindName(info.param);
    });

TEST(KillResumeObs, MetricsSeriesSurvivesResume)
{
    ActEngineConfig config = engineConfig(schemes::SchemeKind::Graphene);
    config.windows = 1.5; // several closed metric windows

    obs::Sink ref_sink;
    ActEngineConfig ref_config = config;
    ref_config.obs = &ref_sink;
    auto ref_pattern = patternFor(ref_config);
    ActStreamEngine reference(ref_config, *ref_pattern);
    const ActEngineResult want = reference.run();
    std::ostringstream want_jsonl;
    ref_sink.metrics.writeJsonl(want_jsonl);

    obs::Sink killed_sink;
    ActEngineConfig killed_config = config;
    killed_config.obs = &killed_sink;
    auto killed_pattern = patternFor(killed_config);
    ActStreamEngine killed(killed_config, *killed_pattern);
    killed.runUntil(Cycle{static_cast<std::uint64_t>(
        static_cast<double>(config.timing.cREFW().value()) * 0.7)});
    const auto blob = killed.saveCheckpoint();

    obs::Sink resumed_sink;
    ActEngineConfig resumed_config = config;
    resumed_config.obs = &resumed_sink;
    auto resumed_pattern = patternFor(resumed_config);
    ActStreamEngine resumed(resumed_config, *resumed_pattern);
    ASSERT_TRUE(resumed.restoreCheckpoint(blob).ok());
    while (resumed.step()) {
    }
    const ActEngineResult got = resumed.finish();

    EXPECT_EQ(want.acts, got.acts);
    std::ostringstream got_jsonl;
    resumed_sink.metrics.writeJsonl(got_jsonl);
    EXPECT_EQ(want_jsonl.str(), got_jsonl.str())
        << "windowed metrics series diverged across the resume";
}

TEST(KillResumeReject, DifferentConfigIsConfigMismatch)
{
    const ActEngineConfig config =
        engineConfig(schemes::SchemeKind::Graphene);
    auto pattern = patternFor(config);
    ActStreamEngine engine(config, *pattern);
    engine.runUntil(Cycle{100000});
    const auto blob = engine.saveCheckpoint();

    ActEngineConfig other = config;
    other.actRate = 0.5;
    auto other_pattern = patternFor(other);
    ActStreamEngine stranger(other, *other_pattern);
    const Result<void> r = stranger.restoreCheckpoint(blob);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::CkptConfigMismatch);
}

TEST(KillResumeReject, MalformedMetricsRegistryIsRejected)
{
    // Checksum-valid containers whose registry payload holds a
    // histogram no registry builds: restore must fail with a typed
    // error, not trip Histogram's constructor contract.
    ActEngineConfig config = engineConfig(schemes::SchemeKind::Graphene);
    auto pattern = patternFor(config);
    ActStreamEngine engine(config, *pattern);
    engine.runUntil(Cycle{100000});
    ckpt::Writer state;
    engine.saveState(state);
    // Saved without a sink, the payload ends in has_obs = false.
    std::vector<std::uint8_t> prefix = state.data();
    ASSERT_EQ(prefix.back(), 0u);
    prefix.back() = 1;

    const auto histogram = [&config](std::uint64_t buckets,
                                     double width, std::uint64_t count) {
        ckpt::Writer w;
        w.u64(0); // scalars
        w.u64(1);
        w.str("lat");
        w.u64(buckets);
        for (std::uint64_t b = 0; b < buckets; ++b)
            w.u64(1);
        w.f64(width);
        w.u64(count);
        w.u64(0); // overflow
        w.f64(0.0);
        w.f64(0.0);
        w.u64(0); // lastScalar
        w.u64(0); // lastHistSamples
        w.u64(0); // rows
        w.u64(config.timing.cREFW().value());
        w.u64(0);
        w.boolean(true);
        return w.data();
    };
    const std::vector<std::vector<std::uint8_t>> registries = {
        histogram(0, 1.0, 0),
        histogram(2, 0.0, 2),
        histogram(2, -1.0, 2),
        histogram(2, std::numeric_limits<double>::quiet_NaN(), 2),
        histogram(2, 1.0, 3),
    };
    obs::Sink sink;
    config.obs = &sink;
    const auto restore = [&](const std::vector<std::uint8_t> &registry) {
        std::vector<std::uint8_t> payload = prefix;
        payload.insert(payload.end(), registry.begin(), registry.end());
        auto victim_pattern = patternFor(config);
        ActStreamEngine victim(config, *victim_pattern);
        return victim.restoreCheckpoint(
            ckpt::encode(victim.configFingerprint(), payload));
    };
    // The well-formed twin restores, so each case fails for its flaw.
    ASSERT_TRUE(restore(histogram(2, 1.0, 2)).ok());
    for (std::size_t i = 0; i < registries.size(); ++i)
        EXPECT_FALSE(restore(registries[i]).ok()) << "case " << i;
}

TEST(KillResumeReject, RefreshCountDisagreeingWithTheRankIsRejected)
{
    // The REF count is saved in the engine's counter slot and again
    // inside the rank; a checksum-valid payload whose two copies
    // disagree must not restore.
    const ActEngineConfig config =
        engineConfig(schemes::SchemeKind::Graphene);
    auto pattern = patternFor(config);
    ActStreamEngine engine(config, *pattern);
    engine.runUntil(Cycle{500000});
    ASSERT_GT(engine.refreshCommandsSoFar(), 0u);
    ckpt::Writer state;
    engine.saveState(state);

    // nextAct (f64), done (u8), acts, nrrEvents, then the REF count.
    constexpr std::size_t kRefSlot = 8 + 1 + 8 + 8;
    const auto restore = [&](std::uint64_t refs) {
        std::vector<std::uint8_t> payload = state.data();
        for (int i = 0; i < 8; ++i)
            payload[kRefSlot + i] =
                static_cast<std::uint8_t>(refs >> (8 * i));
        auto victim_pattern = patternFor(config);
        ActStreamEngine victim(config, *victim_pattern);
        return victim.restoreCheckpoint(
            ckpt::encode(victim.configFingerprint(), payload));
    };
    const std::uint64_t refs = engine.refreshCommandsSoFar();
    ASSERT_TRUE(restore(refs).ok());
    for (const std::uint64_t bad : {refs - 1, refs + 1, std::uint64_t{0}}) {
        const Result<void> r = restore(bad);
        ASSERT_FALSE(r.ok()) << bad;
        // A restore that fails its reader keeps the truncated code,
        // but names the rejected value rather than a short payload.
        EXPECT_EQ(r.error().code(), ErrorCode::CkptTruncated) << bad;
        EXPECT_NE(r.error().message().find(
                      "a restored value failed validation at byte"),
                  std::string::npos)
            << r.error().message();
    }
}

TEST(KillResumeReject, CorruptedBytesNeverRestore)
{
    const ActEngineConfig config =
        engineConfig(schemes::SchemeKind::TwiCe);
    auto pattern = patternFor(config);
    ActStreamEngine engine(config, *pattern);
    engine.runUntil(Cycle{500000});
    const auto blob = engine.saveCheckpoint();

    // Flip one byte at a stride across the whole artifact: every
    // corruption must be rejected with a typed ckpt error (never a
    // crash, never a silent success — ASan/TSan keep this honest).
    for (std::size_t pos = 0; pos < blob.size();
         pos += 1 + blob.size() / 97) {
        auto bad = blob;
        bad[pos] ^= 0x20;
        auto victim_pattern = patternFor(config);
        ActStreamEngine victim(config, *victim_pattern);
        const Result<void> r = victim.restoreCheckpoint(bad);
        ASSERT_FALSE(r.ok()) << "byte " << pos;
        switch (r.error().code()) {
          case ErrorCode::CkptTruncated:
          case ErrorCode::CkptBadHeader:
          case ErrorCode::CkptVersionSkew:
          case ErrorCode::CkptBadPayload:
          case ErrorCode::CkptConfigMismatch:
            break;
          default:
            ADD_FAILURE() << "byte " << pos << ": unexpected code "
                          << errorCodeName(r.error().code());
        }
    }
}

TEST(KillResumeBoundary, CheckpointAtEveryEarlySlotRoundTrips)
{
    // Dense sweep over the first ACT slots (covers the first REF
    // catch-up): checkpoint after every step and restore immediately;
    // the restored engine's own checkpoint must be byte-identical
    // (serialize-restore-serialize is the identity).
    const ActEngineConfig config =
        engineConfig(schemes::SchemeKind::MrLoc);
    auto pattern = patternFor(config);
    ActStreamEngine engine(config, *pattern);
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(engine.step());
        const auto blob = engine.saveCheckpoint();
        auto copy_pattern = patternFor(config);
        ActStreamEngine copy(config, *copy_pattern);
        ASSERT_TRUE(copy.restoreCheckpoint(blob).ok()) << i;
        EXPECT_EQ(copy.saveCheckpoint(), blob) << "step " << i;
    }
}

} // namespace
} // namespace sim
} // namespace graphene
