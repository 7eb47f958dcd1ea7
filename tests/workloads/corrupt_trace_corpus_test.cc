/**
 * @file
 * Corpus test for the trace readers' typed-error contract: every file
 * under tests/data/corrupt_traces is malformed in a different way
 * (bad fields, trailing garbage, truncated final record, comment-only
 * or empty input, binary junk, negative rows), and both readTrace()
 * and readActTrace() must reject each with a typed error — never
 * crash, never silently return records. CI runs it under ASan with
 * the rest of the suite.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#include "workloads/trace_io.hh"

namespace graphene {
namespace workloads {
namespace {

std::vector<std::filesystem::path>
corpusFiles()
{
    const std::filesystem::path dir =
        std::filesystem::path(GRAPHENE_TEST_DATA_DIR) /
        "corrupt_traces";
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir))
        if (entry.is_regular_file())
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(CorruptTraceCorpus, EveryFileYieldsTypedErrors)
{
    const auto files = corpusFiles();
    ASSERT_GE(files.size(), 5u) << "corpus went missing";

    for (const auto &path : files) {
        {
            std::ifstream is(path);
            ASSERT_TRUE(is) << path;
            const auto result = readTrace(is);
            EXPECT_FALSE(result.ok())
                << path << " parsed as a request trace";
            if (!result.ok()) {
                EXPECT_FALSE(result.error().message().empty());
                EXPECT_EQ(result.error().code(), ErrorCode::Parse)
                    << path;
            }
        }
        {
            std::ifstream is(path);
            ASSERT_TRUE(is) << path;
            const auto result = readActTrace(is);
            EXPECT_FALSE(result.ok())
                << path << " parsed as an ACT trace";
            if (!result.ok()) {
                EXPECT_EQ(result.error().code(), ErrorCode::Parse)
                    << path;
            }
        }
    }
}

} // namespace
} // namespace workloads
} // namespace graphene
