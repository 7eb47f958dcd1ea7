/**
 * @file
 * Differential test: ZipfSampler's shared Eytzinger-ordered table
 * against the per-sampler sorted CDF and std::lower_bound it replaced
 * (zipf_reference.hh).
 *
 * Every (n, theta) the repository constructs is a case, plus the
 * population sizes at the edges of the layout (1, 2, a complete tree,
 * one past it, and either side of the 2^16 explicit-CDF cap). Each
 * case checks the search directly at every CDF entry, one ULP either
 * side of it and at u = 0, then draws step-locked from both samplers
 * on the same seeds. A concurrency case builds and drops samplers
 * over overlapping keys from eight threads.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/model_checker.hh"
#include "common/random.hh"
#include "common/zipf.hh"
#include "workloads/profiles.hh"
#include "zipf_reference.hh"

namespace graphene {
namespace {

using reference::ReferenceZipfSampler;

struct ZipfCase
{
    std::uint64_t n;
    double theta;
};

void
PrintTo(const ZipfCase &c, std::ostream *os)
{
    *os << "n " << c.n << ", theta " << c.theta;
}

/** Every profile's (rows, theta), with theta 0 mapped to 1e-9 as
 *  SyntheticGenerator does. */
std::vector<ZipfCase>
profileCases()
{
    std::set<std::string> names;
    for (const auto &app : workloads::specHighApps())
        names.insert(app);
    for (const auto &app : workloads::multiThreadedApps())
        names.insert(app);
    // mix-blend draws from every other profile; 1024 draws over a few
    // dozen names reach them all.
    for (const auto &p : workloads::mixBlend(1024, 7).coreParams)
        names.insert(p.name);

    // The not-found error names the registry's size: check that every
    // profile was reached.
    const auto miss = workloads::appProfile("");
    const std::string expected =
        "(" + std::to_string(names.size()) + " profiles available)";
    EXPECT_NE(miss.error().message().find(expected), std::string::npos)
        << miss.error().message();

    std::vector<ZipfCase> cases;
    for (const auto &name : names) {
        const auto p = workloads::appProfile(name).value();
        cases.push_back({p.workingSetRows,
                         p.zipfTheta > 0.0 ? p.zipfTheta : 1e-9});
    }
    return cases;
}

std::vector<ZipfCase>
allCases()
{
    std::vector<ZipfCase> cases = profileCases();
    // The model checker's zipf families at its default row count, the
    // model-checker test's and TrackerDiff's largest.
    const std::uint64_t checker_rows = check::ModelCheckConfig{}.numRows;
    for (const std::uint64_t rows : {checker_rows, std::uint64_t{512},
                                     std::uint64_t{4 * 2600}})
        for (const double theta : {0.99, 1.2})
            cases.push_back({rows, theta});
    cases.push_back({512, 0.99});    // counter_table_test
    cases.push_back({16384, 0.99});  // secVI_trackers
    cases.push_back({4096, 0.45});   // micro_layers
    cases.push_back({16384, 0.0});   // micro_layers
    cases.push_back({16384, 0.30});  // micro_layers
    cases.push_back({1 << 20, 0.99}); // micro_layers
    for (const std::uint64_t n : {1, 2, 7, 8, 65535, 65536, 65537})
        cases.push_back({n, 0.99});
    cases.push_back({65537, 1.0}); // the logarithmic tail mass

    // One case per key.
    std::map<std::pair<std::uint64_t, double>, ZipfCase> unique;
    for (const ZipfCase &c : cases)
        unique.emplace(std::make_pair(c.n, c.theta), c);
    std::vector<ZipfCase> out;
    for (const auto &[key, c] : unique)
        out.push_back(c);
    return out;
}

std::string
caseName(const ::testing::TestParamInfo<ZipfCase> &info)
{
    char theta[32];
    std::snprintf(theta, sizeof theta, "%g", info.param.theta);
    std::string name = "n" + std::to_string(info.param.n) + "_theta";
    for (const char *c = theta; *c != '\0'; ++c)
        name += *c == '.' ? 'p' : *c == '-' ? 'm' : *c == '+' ? 'p' : *c;
    return name;
}

class ZipfDiff : public ::testing::TestWithParam<ZipfCase>
{
};

TEST_P(ZipfDiff, SearchMatchesLowerBoundAtEveryCdfEntry)
{
    const ZipfCase c = GetParam();
    const ReferenceZipfSampler ref(c.n, c.theta);
    const ZipfSampler zipf(c.n, c.theta);

    std::vector<double> probes{0.0};
    for (const double v : ref.cdf()) {
        probes.push_back(v);
        probes.push_back(std::nextafter(v, 0.0));
        probes.push_back(std::nextafter(v, 2.0));
    }
    std::uint64_t mismatches = 0;
    for (const double u : probes) {
        if (zipf.rankOf(u) != ref.rankOf(u) && mismatches++ == 0)
            ADD_FAILURE() << "first mismatch at u = " << u << ": "
                          << zipf.rankOf(u) << " vs " << ref.rankOf(u);
    }
    EXPECT_EQ(mismatches, 0u) << "of " << probes.size() << " probes";
}

TEST_P(ZipfDiff, DrawsMatchReferenceStepLocked)
{
    const ZipfCase c = GetParam();
    const ReferenceZipfSampler ref(c.n, c.theta);
    const ZipfSampler zipf(c.n, c.theta);
    ASSERT_EQ(zipf.population(), ref.population());

    for (const std::uint64_t seed : {1u, 0x9e3779b9u}) {
        Rng a(seed);
        Rng b(seed);
        for (int i = 0; i < 100000; ++i) {
            const std::uint64_t want = ref.sample(a);
            const std::uint64_t got = zipf.sample(b);
            ASSERT_EQ(got, want) << "seed " << seed << " draw " << i;
        }
        // Both consumed the same random stream.
        ASSERT_EQ(a.next64(), b.next64()) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Keys, ZipfDiff, ::testing::ValuesIn(allCases()),
                         caseName);

TEST(Zipf, SamplersOfOneKeyShareOneTable)
{
    const ZipfSampler a(16384, 0.3);
    const ZipfSampler b(16384, 0.3);
    const ZipfSampler other_n(8192, 0.3);
    const ZipfSampler other_theta(16384, 0.30000000000000004);
    EXPECT_TRUE(a.sharesTableWith(b));
    EXPECT_FALSE(a.sharesTableWith(other_n));
    EXPECT_FALSE(a.sharesTableWith(other_theta));
}

TEST(Zipf, ConcurrentConstructionSharesAndMatchesReference)
{
    // Four keys, each used by several threads; the last has no
    // anchor, so its table is dropped and rebuilt while others draw.
    const std::vector<ZipfCase> keys = {
        {16384, 0.3}, {8192, 0.2}, {4096, 0.45}, {2048, 0.99}};
    constexpr int kDraws = 20000;
    std::vector<std::vector<std::uint64_t>> want(keys.size());
    for (std::size_t k = 0; k < keys.size(); ++k) {
        const ReferenceZipfSampler ref(keys[k].n, keys[k].theta);
        Rng rng(k + 1);
        for (int i = 0; i < kDraws; ++i)
            want[k].push_back(ref.sample(rng));
    }
    std::vector<ZipfSampler> anchors;
    for (std::size_t k = 0; k + 1 < keys.size(); ++k)
        anchors.emplace_back(keys[k].n, keys[k].theta);

    constexpr int kThreads = 8;
    std::vector<int> failures(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 4; ++round) {
                for (std::size_t j = 0; j < 2; ++j) {
                    const std::size_t k = (t + j + round) % keys.size();
                    const ZipfSampler zipf(keys[k].n, keys[k].theta);
                    if (k < anchors.size() &&
                        !zipf.sharesTableWith(anchors[k]))
                        ++failures[t];
                    Rng rng(k + 1);
                    for (int i = 0; i < kDraws; ++i)
                        failures[t] += zipf.sample(rng) != want[k][i];
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[t], 0) << "thread " << t;
}

} // namespace
} // namespace graphene
