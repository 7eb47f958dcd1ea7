/**
 * @file
 * Corpus test for the checkpoint decoder's typed-error contract:
 * every committed file under tests/data/ckpt/ is malformed in exactly
 * one way and must be rejected with exactly the ErrorCode its name
 * promises — never crash, never return a blob. Regenerate the corpus
 * with tools/make_ckpt_corpus.py (kept in lockstep with the mapping
 * below). CI runs it under ASan with the rest of the suite.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"

namespace graphene {
namespace ckpt {
namespace {

/** Fingerprint tools/make_ckpt_corpus.py framed the corpus with. */
constexpr std::uint64_t kKnownFp = 0xC0FFEE0DDEADBEEFULL;

std::vector<std::uint8_t>
slurp(const std::filesystem::path &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is) << path;
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(is),
        std::istreambuf_iterator<char>());
}

TEST(CorruptCkptCorpus, EveryFileYieldsItsOwnTypedError)
{
    const std::map<std::string, ErrorCode> expected = {
        {"truncated_header.gckp", ErrorCode::CkptTruncated},
        {"truncated_payload.gckp", ErrorCode::CkptTruncated},
        {"bad_magic.gckp", ErrorCode::CkptBadHeader},
        {"bitflip_header.gckp", ErrorCode::CkptBadHeader},
        {"version_skew.gckp", ErrorCode::CkptVersionSkew},
        {"bitflip_payload.gckp", ErrorCode::CkptBadPayload},
        {"trailing_garbage.gckp", ErrorCode::CkptBadPayload},
        {"config_mismatch.gckp", ErrorCode::CkptConfigMismatch},
    };

    const std::filesystem::path dir =
        std::filesystem::path(GRAPHENE_TEST_DATA_DIR) / "ckpt";

    // The pristine base artifact must decode: proves the corrupted
    // siblings fail for their corruption, not a stale format.
    {
        const auto blob = decode(slurp(dir / "valid.gckp"), kKnownFp);
        ASSERT_TRUE(blob.ok()) << blob.error().describe();
        EXPECT_FALSE(blob.value().payload.empty());
    }

    std::size_t seen = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name == "valid.gckp")
            continue;
        const auto it = expected.find(name);
        ASSERT_NE(it, expected.end())
            << name << " not in the corpus mapping — update "
            << "tests/ckpt/corrupt_corpus_test.cc alongside "
            << "tools/make_ckpt_corpus.py";
        ++seen;

        const auto blob = decode(slurp(entry.path()), kKnownFp);
        ASSERT_FALSE(blob.ok()) << name << " decoded successfully";
        EXPECT_EQ(blob.error().code(), it->second)
            << name << ": " << blob.error().describe();
        EXPECT_FALSE(blob.error().message().empty()) << name;
    }
    EXPECT_EQ(seen, expected.size()) << "corpus file went missing";
}

} // namespace
} // namespace ckpt
} // namespace graphene
