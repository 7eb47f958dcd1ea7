/**
 * @file
 * Content-addressed cache: hits reproduce the stored record
 * bit-for-bit, any fingerprint or version-tag change re-addresses
 * the entry, and corruption degrades to a miss — never a wrong
 * result and never an abort. Each entry is a checkpoint container
 * keyed by its own address, so an edited digit, a torn file, a
 * renamed entry or one from another code version is refused with a
 * typed reason.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.hh"
#include "exp/cache.hh"
#include "exp/fingerprint.hh"
#include "sim/experiment.hh"
#include "spec_perturbation.hh"

namespace {

using namespace graphene;
using exp::Cache;
using exp::CellKey;
using exp::CellResult;

std::string
freshDir(const char *name)
{
    const auto dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    return dir.string();
}

CellKey
sampleKey()
{
    CellKey key;
    key.experiment = "cache-test";
    key.workload = "mcf";
    key.scheme = "Graphene";
    key.fingerprint = 0x1234abcd5678ef00ULL;
    return key;
}

CellResult
sampleResult()
{
    CellResult r;
    r.stats.acts = 12345;
    r.stats.requests = 67890;
    r.stats.victimRowsRefreshed = 42;
    r.stats.energyOverhead = 0.0034;
    r.stats.perfLoss = 1.0 / 3.0; // exercises round-trip exactness
    r.stats.windows = 0.02;
    r.stats.coreRequests = {11, 22, 33};
    return r;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::trunc | std::ios::binary) << bytes;
}

TEST(ExpCache, MissOnEmptyDirectory)
{
    const Cache cache(freshDir("exp-cache-miss"));
    EXPECT_FALSE(cache.load(sampleKey()).has_value());
}

TEST(ExpCache, StoreThenLoadRoundTrips)
{
    const Cache cache(freshDir("exp-cache-roundtrip"));
    const auto key = sampleKey();
    const auto result = sampleResult();
    cache.store(key, result);

    const auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, result);
}

TEST(ExpCache, HitIsBitForBit)
{
    // The stored payload is the deterministic record line itself:
    // re-serialising the loaded result must reproduce the file's
    // bytes exactly (this is what keeps warm-cache JSONL artifacts
    // byte-identical to cold ones).
    const Cache cache(freshDir("exp-cache-bits"));
    const auto key = sampleKey();
    const auto result = sampleResult();
    cache.store(key, result);

    const Result<ckpt::Blob> blob =
        ckpt::loadFile(cache.entryPath(key), std::nullopt);
    ASSERT_TRUE(blob.ok()) << blob.error().describe();
    const std::string stored(blob.value().payload.begin(),
                             blob.value().payload.end());
    EXPECT_EQ(stored, exp::cellRecordLine(key, *cache.load(key)));
    EXPECT_EQ(stored, exp::cellRecordLine(key, result));
}

TEST(ExpCache, FingerprintChangeIsAMiss)
{
    const Cache cache(freshDir("exp-cache-fp"));
    auto key = sampleKey();
    cache.store(key, sampleResult());

    key.fingerprint ^= 1; // any spec change changes the fingerprint
    EXPECT_FALSE(cache.load(key).has_value());
}

TEST(ExpCache, VersionTagBumpInvalidatesEveryEntry)
{
    const auto dir = freshDir("exp-cache-version");
    const auto key = sampleKey();
    const Cache v1(dir, "exp-test-v1");
    v1.store(key, sampleResult());
    ASSERT_TRUE(v1.load(key).has_value());

    const Cache v2(dir, "exp-test-v2");
    EXPECT_FALSE(v2.load(key).has_value());
    EXPECT_NE(v1.entryPath(key), v2.entryPath(key));
}

TEST(ExpCache, CorruptEntryDegradesToMiss)
{
    const Cache cache(freshDir("exp-cache-corrupt"));
    const auto key = sampleKey();
    cache.store(key, sampleResult());

    spit(cache.entryPath(key), "{\"not\":\"a cell record\"}\n");
    EXPECT_FALSE(cache.load(key).has_value());
}

TEST(ExpCache, EditedDigitIsAMiss)
{
    // One digit of a count changed in place still parses and still
    // names the cell; only the container checksum can tell.
    const Cache cache(freshDir("exp-cache-edited"));
    const auto key = sampleKey();
    cache.store(key, sampleResult());

    std::string bytes = slurp(cache.entryPath(key));
    const std::string field = "\"victim_rows\":42";
    const std::size_t at = bytes.find(field);
    ASSERT_NE(at, std::string::npos);
    bytes[at + field.size() - 1] = '3';
    spit(cache.entryPath(key), bytes);
    EXPECT_FALSE(cache.load(key).has_value())
        << "an edited entry was served as a result";
}

TEST(ExpCache, TruncatedEntryIsATypedMiss)
{
    const Cache cache(freshDir("exp-cache-truncated"));
    const auto key = sampleKey();
    cache.store(key, sampleResult());

    const std::string bytes = slurp(cache.entryPath(key));
    spit(cache.entryPath(key), bytes.substr(0, bytes.size() / 2));
    std::string why;
    EXPECT_FALSE(cache.load(key, &why).has_value());
    EXPECT_NE(why.find("ckpt-truncated"), std::string::npos) << why;
    EXPECT_EQ(why.rfind(cache.entryPath(key), 0), 0u) << why;
}

TEST(ExpCache, RenamedEntryIsATypedMismatch)
{
    // Another cell's intact entry moved onto our address.
    const Cache cache(freshDir("exp-cache-renamed"));
    const auto key = sampleKey();
    auto other = key;
    other.fingerprint = 0x9999999999999999ULL;
    cache.store(other, sampleResult());
    std::filesystem::rename(cache.entryPath(other),
                            cache.entryPath(key));

    std::string why;
    EXPECT_FALSE(cache.load(key, &why).has_value());
    EXPECT_NE(why.find("mismatch"), std::string::npos) << why;
}

TEST(ExpCache, EntryFromADifferentCodeVersionIsATypedMismatch)
{
    const auto dir = freshDir("exp-cache-old-version");
    const auto key = sampleKey();
    const Cache old_code(dir, "old-code-version");
    const Cache cache(dir, "exp-test-v1");
    old_code.store(key, sampleResult());
    std::filesystem::rename(old_code.entryPath(key),
                            cache.entryPath(key));

    std::string why;
    EXPECT_FALSE(cache.load(key, &why).has_value());
    EXPECT_NE(why.find("mismatch"), std::string::npos) << why;
}

TEST(ExpCache, ForeignEntryUnderOurAddressIsAMiss)
{
    // An intact container at our address whose record names another
    // cell (a hand-built entry) must not be served.
    const Cache cache(freshDir("exp-cache-foreign"));
    const auto key = sampleKey();
    cache.store(key, sampleResult());
    const Result<ckpt::Blob> framing =
        ckpt::loadFile(cache.entryPath(key), std::nullopt);
    ASSERT_TRUE(framing.ok());

    auto other = key;
    other.fingerprint = 0x9999999999999999ULL;
    const std::string line = exp::cellRecordLine(other, sampleResult());
    ASSERT_TRUE(ckpt::saveFile(cache.entryPath(key),
                               framing.value().configFingerprint,
                               {line.begin(), line.end()})
                    .ok());
    std::string why;
    EXPECT_FALSE(cache.load(key, &why).has_value());
    EXPECT_NE(why.find("mismatch"), std::string::npos) << why;
}

TEST(ExpCache, SkippedCellsCacheTheirError)
{
    const Cache cache(freshDir("exp-cache-error"));
    const auto key = sampleKey();
    CellResult skipped;
    skipped.error = "scheme spec: blast radius must be positive";
    cache.store(key, skipped);

    const auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->skipped());
    EXPECT_EQ(loaded->error, skipped.error);
}

/**
 * Satellite: every perturbed scheme spec that actually changes a
 * field must land at a different cache address (via its different
 * fingerprint), so no perturbation can be served a stale entry.
 */
TEST(ExpCache, PerturbedSpecsNeverShareACacheAddress)
{
    const Cache cache(freshDir("exp-cache-perturb"));
    schemes::SchemeSpec base;
    base.kind = schemes::SchemeKind::Graphene;
    auto key = sampleKey();
    key.fingerprint = sim::schemeSpecDigest(base);
    const std::string base_path = cache.entryPath(key);

    test::perturbSchemeSpecs(
        base, 100, 999, [&](const schemes::SchemeSpec &spec) {
            const bool same_fields =
                spec.rowHammerThreshold == base.rowHammerThreshold &&
                spec.blastRadius == base.blastRadius &&
                spec.grapheneK == base.grapheneK;
            auto perturbed = key;
            perturbed.fingerprint = sim::schemeSpecDigest(spec);
            EXPECT_EQ(cache.entryPath(perturbed) == base_path,
                      same_fields);
        });
}

} // namespace
