/**
 * @file
 * Content-addressed cache: hits reproduce the stored record
 * bit-for-bit, any fingerprint or version-tag change re-addresses
 * the entry, and corruption degrades to a miss — never a wrong
 * result and never an abort.
 */

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

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

    std::ifstream in(cache.entryPath(key));
    std::string stored;
    ASSERT_TRUE(std::getline(in, stored));
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

    std::ofstream(cache.entryPath(key), std::ios::trunc)
        << "{\"not\":\"a cell record\"}\n";
    EXPECT_FALSE(cache.load(key).has_value());
}

TEST(ExpCache, ForeignEntryUnderOurAddressIsAMiss)
{
    // A record whose own fingerprint field disagrees with the key
    // (renamed or hand-copied file) must not be served.
    const Cache cache(freshDir("exp-cache-foreign"));
    const auto key = sampleKey();
    auto other = key;
    other.fingerprint = 0x9999999999999999ULL;
    std::filesystem::create_directories(cache.dir());
    std::ofstream(cache.entryPath(key), std::ios::trunc)
        << exp::cellRecordLine(other, sampleResult()) << "\n";
    EXPECT_FALSE(cache.load(key).has_value());
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
