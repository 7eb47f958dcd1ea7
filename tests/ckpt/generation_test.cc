/**
 * @file
 * Tests for the generational-file helper every crash-resume artifact
 * shares: saveRotated() keeps the previous file as `.prev`, and
 * loadNewest() tries the newest first, falls back to `.prev` when a
 * candidate is rejected, and stays quiet about absent files.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"

namespace graphene {
namespace ckpt {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFp = 0x5eed5eed5eed5eedULL;

std::string
freshPath(const char *name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return (dir / "artifact.gckp").string();
}

/** Accepts every blob, remembering the last payload it saw. */
struct Recorder
{
    std::vector<std::uint8_t> seen;
    std::uint64_t seenFp = 0;
    unsigned calls = 0;

    Result<void> operator()(const Blob &blob)
    {
        ++calls;
        seen = blob.payload;
        seenFp = blob.configFingerprint;
        return Result<void>::success();
    }
};

TEST(Generations, SaveRotatesTheCurrentFileToPrev)
{
    const std::string path = freshPath("gen_rotate");
    ASSERT_TRUE(saveRotated(path, kFp, {1}).ok());
    EXPECT_FALSE(fs::exists(path + ".prev"));
    ASSERT_TRUE(saveRotated(path, kFp, {2}).ok());

    const Result<Blob> newest = loadFile(path, kFp);
    const Result<Blob> prev = loadFile(path + ".prev", kFp);
    ASSERT_TRUE(newest.ok());
    ASSERT_TRUE(prev.ok());
    EXPECT_EQ(newest.value().payload, std::vector<std::uint8_t>{2});
    EXPECT_EQ(prev.value().payload, std::vector<std::uint8_t>{1});
}

TEST(Generations, LoadsTheNewestFirst)
{
    const std::string path = freshPath("gen_newest");
    ASSERT_TRUE(saveRotated(path, kFp, {1}).ok());
    ASSERT_TRUE(saveRotated(path, kFp, {2}).ok());

    Recorder accept;
    const LoadReport report = loadNewest(
        path, kFp, [&](const auto &p) { return accept(p); });
    EXPECT_EQ(report.source, path);
    EXPECT_TRUE(report.notes.empty());
    EXPECT_EQ(accept.calls, 1u);
    EXPECT_EQ(accept.seen, std::vector<std::uint8_t>{2});

    // Any producer: the header's fingerprint is left to accept.
    const LoadReport any = loadNewest(
        path, std::nullopt, [&](const auto &p) { return accept(p); });
    EXPECT_EQ(any.source, path);
    EXPECT_EQ(accept.seenFp, kFp);
}

TEST(Generations, FallsBackToPrevWhenAcceptRejects)
{
    const std::string path = freshPath("gen_fallback");
    ASSERT_TRUE(saveRotated(path, kFp, {1}).ok());
    ASSERT_TRUE(saveRotated(path, kFp, {2}).ok());

    std::vector<std::uint8_t> taken;
    const LoadReport report = loadNewest(
        path, kFp,
        [&](const Blob &blob) -> Result<void> {
            if (blob.payload == std::vector<std::uint8_t>{2})
                return Error(ErrorCode::CkptBadPayload, "refused");
            taken = blob.payload;
            return Result<void>::success();
        });
    EXPECT_EQ(report.source, path + ".prev");
    EXPECT_EQ(taken, std::vector<std::uint8_t>{1});
    ASSERT_EQ(report.notes.size(), 1u);
    const std::string typed = path + ": ckpt-bad-payload error: refused";
    EXPECT_EQ(report.notes[0].rfind(typed, 0), 0u) << report.notes[0];
}

TEST(Generations, CorruptNewestLeavesATypedNoteAndFallsBack)
{
    const std::string path = freshPath("gen_corrupt");
    ASSERT_TRUE(saveRotated(path, kFp, {1}).ok());
    ASSERT_TRUE(saveRotated(path, kFp, {2}).ok());
    {
        std::ofstream torn(path, std::ios::binary | std::ios::trunc);
        torn << "GCKP torn";
    }

    Recorder accept;
    const LoadReport report = loadNewest(
        path, kFp, [&](const auto &p) { return accept(p); });
    EXPECT_EQ(report.source, path + ".prev");
    EXPECT_EQ(accept.calls, 1u) << "accept saw the corrupt candidate";
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes[0].find("ckpt-truncated"),
              std::string::npos)
        << report.notes[0];
}

TEST(Generations, AbsentFilesLeaveNoNotes)
{
    const std::string path = freshPath("gen_absent");
    Recorder accept;
    const LoadReport report = loadNewest(
        path, kFp, [&](const auto &p) { return accept(p); });
    EXPECT_TRUE(report.source.empty());
    EXPECT_TRUE(report.notes.empty());
    EXPECT_EQ(accept.calls, 0u);

    // Only `.prev` on disk (a kill between rotation and write): the
    // absent newest file is skipped silently.
    ASSERT_TRUE(saveFile(path + ".prev", kFp, {3}).ok());
    const LoadReport prev_only = loadNewest(
        path, kFp, [&](const auto &p) { return accept(p); });
    EXPECT_EQ(prev_only.source, path + ".prev");
    EXPECT_TRUE(prev_only.notes.empty());
}

} // namespace
} // namespace ckpt
} // namespace graphene
