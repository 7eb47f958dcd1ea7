/**
 * @file
 * The conventions pass: each of its eight line-level rules on its own
 * fixture corpus (every finding attributed to that rule's file, at
 * exactly the known-bad lines, waived lines silent), the sanctioned
 * homes each rule exempts, and path exemptions that look only at the
 * root-relative path, never at where the checkout lives.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze.hh"

namespace {

namespace fs = std::filesystem;
using namespace graphene::analyze;

std::vector<Finding>
conventions(const fs::path &root)
{
    const Corpus corpus = buildCorpus(root, root / "layers.toml",
                                      root / "coverage_baseline.txt");
    std::vector<Finding> findings;
    runConventionsPass(corpus, findings);
    return findings;
}

/** A fresh, empty corpus root under the test temp directory. */
fs::path
scratchRoot(const std::string &name)
{
    const fs::path root = fs::path(::testing::TempDir()) / name;
    fs::remove_all(root);
    fs::create_directories(root);
    return root;
}

void
writeFile(const fs::path &path, const std::string &text)
{
    fs::create_directories(path.parent_path());
    std::ofstream(path) << text;
}

struct RuleCorpus
{
    std::string corpus; ///< fixture directory (rule, '_' for '-')
    std::string rule;
    std::string file;   ///< the one file the rule must flag
    std::set<unsigned> lines;
};

void
PrintTo(const RuleCorpus &c, std::ostream *os)
{
    *os << c.corpus;
}

class ConventionRule : public ::testing::TestWithParam<RuleCorpus>
{
};

TEST_P(ConventionRule, FlagsExactlyItsKnownBadLines)
{
    const RuleCorpus &c = GetParam();
    std::set<unsigned> lines;
    for (const Finding &f : conventions(
             fs::path(GRAPHENE_ANALYZE_FIXTURES) / c.corpus)) {
        EXPECT_EQ(f.rule, c.rule) << f.file << ":" << f.line;
        EXPECT_EQ(f.file, c.file) << f.rule << " at " << f.line;
        EXPECT_EQ(f.severity, "error");
        lines.insert(f.line);
    }
    EXPECT_EQ(lines, c.lines);
}

// The known-bad lines of each corpus; the waived lines in
// boundary_fatal (31), raw_thread (17) and unordered_map_iteration
// (25) are absent.
INSTANTIATE_TEST_SUITE_P(
    ConventionsPass, ConventionRule,
    ::testing::Values(
        RuleCorpus{"raw_domain_type", "raw-domain-type",
                   "src/core/raw_domain_type.cc",
                   {7, 9, 10, 16, 17, 18}},
        RuleCorpus{"nondeterministic_rng", "nondeterministic-rng",
                   "src/core/nondeterministic_rng.cc", {11, 12, 14}},
        RuleCorpus{"unordered_map_iteration",
                   "unordered-map-iteration",
                   "src/core/unordered_map_iteration.cc", {15}},
        RuleCorpus{"float_type", "float-type",
                   "src/core/float_type.cc", {5, 6}},
        RuleCorpus{"contract_macro_include", "contract-macro-include",
                   "src/core/contract_macro_include.hh", {12}},
        RuleCorpus{"boundary_fatal", "boundary-fatal",
                   "src/core/boundary_fatal.cc", {10, 11, 17, 21}},
        RuleCorpus{"raw_thread", "raw-thread",
                   "src/core/raw_thread.cc", {10, 11}},
        RuleCorpus{"direct_logging", "direct-logging",
                   "src/core/direct_logging.cc", {11, 13, 15}}),
    [](const ::testing::TestParamInfo<RuleCorpus> &info) {
        return info.param.corpus;
    });

TEST(ConventionsPass, CheckoutUnderATestsDirectoryStillReports)
{
    // An exemption matched against the absolute path would see
    // "tests/" in .../tests/repo/src/sim/ and exempt the whole tree.
    const fs::path root = scratchRoot("tests") / "repo";
    for (const char *name : {"direct_logging", "boundary_fatal"}) {
        const std::string file = std::string(name) + ".cc";
        fs::create_directories(root / "src/sim");
        fs::copy_file(fs::path(GRAPHENE_ANALYZE_FIXTURES) / name /
                          "src/core" / file,
                      root / "src/sim" / file);
    }
    const auto findings = conventions(root);
    const auto count = [&](const std::string &rule) {
        return std::count_if(
            findings.begin(), findings.end(),
            [&](const Finding &f) { return f.rule == rule; });
    };
    EXPECT_EQ(count("direct-logging"), 3);
    EXPECT_EQ(count("boundary-fatal"), 4);
    EXPECT_EQ(findings.size(), 7u);
}

TEST(ConventionsPass, SanctionedHomesAreExempt)
{
    const fs::path root = scratchRoot("sanctioned");
    writeFile(root / "src/common/logging.cc",
              "void f() { std::printf(\"x\"); fatal(\"y\"); }\n");
    writeFile(root / "src/common/error.cc",
              "void g() { panic(\"z\"); }\n");
    writeFile(root / "src/check/contracts.cc",
              "void h() { panic(\"c\"); }\n");
    writeFile(root / "src/common/random.cc",
              "std::random_device rd;\n");
    writeFile(root / "src/common/types.hh", "std::uint64_t row;\n");
    writeFile(root / "src/exp/pool.cc", "std::thread worker;\n");
    // The same unordered_map loop outside src/core and src/schemes.
    writeFile(root / "src/sim/table.cc",
              "std::unordered_map<int, int> m;\n"
              "void k() { for (auto &kv : m) {} }\n");
    writeFile(root / "src/check/contracts.hh",
              "#define GRAPHENE_CHECK(c) f(c)\n"
              "inline void u() { GRAPHENE_CHECK(true); }\n");
    EXPECT_TRUE(conventions(root).empty());
}

TEST(ConventionsPass, QuotedContractsIncludeSatisfiesTheHeaderRule)
{
    // The include path is a string literal, which the stripped text
    // blanks: the rule must read it from the raw line.
    const fs::path root = scratchRoot("contract_include");
    writeFile(root / "src/core/half.hh",
              "#include \"check/contracts.hh\"\n"
              "inline int half(int n) { GRAPHENE_EXPECTS(n % 2 == 0); "
              "return n / 2; }\n");
    EXPECT_TRUE(conventions(root).empty());
}

} // namespace
