/**
 * @file
 * In-process drive of the graphene_analyze passes over the known-bad
 * fixture corpora (one per rule) plus the clean-tree acceptance
 * check: the real repository must analyze with zero errors. These
 * are the tests that prove CI *would* fail on an introduced layer
 * back-edge, include cycle, unhashed fingerprint field, discarded
 * Result, or uncovered entry point.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze.hh"

namespace {

namespace fs = std::filesystem;
using namespace graphene::analyze;

fs::path
fixtureRoot(const std::string &name)
{
    return fs::path(GRAPHENE_ANALYZE_FIXTURES) / name;
}

/** Build a fixture corpus with its own local config files. */
Corpus
fixtureCorpus(const std::string &name)
{
    const fs::path root = fixtureRoot(name);
    return buildCorpus(root, root / "layers.toml",
                       root / "coverage_baseline.txt");
}

std::vector<Finding>
analyzeFixture(const std::string &name)
{
    return runPasses(fixtureCorpus(name), {});
}

bool
hasRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&](const Finding &f) { return f.rule == rule; });
}

TEST(AnalyzePasses, LayerBackEdgeIsAnError)
{
    const auto findings = analyzeFixture("layer_backedge");
    ASSERT_TRUE(hasRule(findings, "layer-dag"));
    const auto it = std::find_if(
        findings.begin(), findings.end(),
        [](const Finding &f) { return f.rule == "layer-dag"; });
    EXPECT_EQ(it->severity, "error");
    // The message must name both layers so the fix is obvious.
    EXPECT_NE(it->message.find("common"), std::string::npos);
    EXPECT_NE(it->message.find("sim"), std::string::npos);
}

TEST(AnalyzePasses, IncludeCycleIsAnError)
{
    const auto findings = analyzeFixture("include_cycle");
    ASSERT_TRUE(hasRule(findings, "include-cycle"));
    const auto it = std::find_if(
        findings.begin(), findings.end(),
        [](const Finding &f) { return f.rule == "include-cycle"; });
    EXPECT_EQ(it->severity, "error");
    // The full cycle path is spelled out.
    EXPECT_NE(it->message.find("a.hh"), std::string::npos);
    EXPECT_NE(it->message.find("b.hh"), std::string::npos);
}

TEST(AnalyzePasses, UnhashedFingerprintFieldIsAnError)
{
    const auto findings = analyzeFixture("fp_missing");
    ASSERT_TRUE(hasRule(findings, "fingerprint-completeness"));
    const auto it = std::find_if(findings.begin(), findings.end(),
                                 [](const Finding &f) {
                                     return f.rule ==
                                            "fingerprint-completeness";
                                 });
    EXPECT_EQ(it->severity, "error");
    // The forgotten field (and only that field) is named.
    EXPECT_NE(it->message.find("blastRadius"), std::string::npos);
    EXPECT_EQ(std::count_if(findings.begin(), findings.end(),
                            [](const Finding &f) {
                                return f.rule ==
                                       "fingerprint-completeness";
                            }),
              1);
}

TEST(AnalyzePasses, DiscardedResultsAreErrors)
{
    const auto findings = analyzeFixture("result_discard");
    // Three discard shapes: bare statement, (void) cast, and
    // unwrapOrFatal outside a CLI/bench boundary.
    EXPECT_EQ(std::count_if(
                  findings.begin(), findings.end(),
                  [](const Finding &f) {
                      return f.rule == "result-discard" &&
                             f.severity == "error";
                  }),
              3);
}

TEST(AnalyzePasses, UncoveredEntryPointIsAnError)
{
    const auto findings = analyzeFixture("coverage_gap");
    ASSERT_TRUE(hasRule(findings, "coverage-audit"));
    const auto it = std::find_if(
        findings.begin(), findings.end(),
        [](const Finding &f) { return f.rule == "coverage-audit"; });
    // No baseline file in this fixture: the gap is new, hence fatal.
    EXPECT_EQ(it->severity, "error");
    EXPECT_NE(it->message.find("onActivate"), std::string::npos);
}

TEST(AnalyzePasses, CleanFixtureHasNoFindings)
{
    // Waivered field + contracted entry point: all passes quiet.
    EXPECT_TRUE(analyzeFixture("clean").empty());
}

TEST(CkptPass, ForgottenMembersAndOneSidedPairsAreErrors)
{
    const auto findings = analyzeFixture("ckpt_missing");
    std::vector<Finding> ckpt;
    std::copy_if(findings.begin(), findings.end(),
                 std::back_inserter(ckpt), [](const Finding &f) {
                     return f.rule == "ckpt-completeness";
                 });
    // _spills (restore side), _epoch (both sides), and the
    // one-sided WriteOnly pair; _acts is covered and silent.
    ASSERT_EQ(ckpt.size(), 3u);
    const auto messageWith = [&](const std::string &needle) {
        return std::any_of(ckpt.begin(), ckpt.end(),
                           [&](const Finding &f) {
                               return f.severity == "error" &&
                                      f.message.find(needle) !=
                                          std::string::npos;
                           });
    };
    EXPECT_TRUE(messageWith("'_spills'"));
    EXPECT_TRUE(messageWith("'_epoch'"));
    EXPECT_TRUE(messageWith("no matching restoreState"));
    EXPECT_FALSE(messageWith("'_acts'"));
}

TEST(CkptPass, WaiversAndDelegationStaySilent)
{
    // Serialized members, saveState-recursion delegation, and all
    // three waiver placements (same line, line above, in-function):
    // the corpus must come back clean.
    EXPECT_TRUE(analyzeFixture("ckpt_waived").empty());
}

TEST(CkptPass, RealTreeCheckpointPairsAreComplete)
{
    // The shipped checkpoint protocol (DESIGN.md §14): every
    // saveState/restoreState pair in src/ round-trips every member
    // or waives it with a rationale.
    const fs::path root = GRAPHENE_REPO_ROOT;
    const Corpus corpus =
        buildCorpus(root, root / "tools/analyze/layers.toml",
                    root / "tools/analyze/coverage_baseline.txt");
    std::vector<Finding> findings;
    runCkptPass(corpus, findings);
    for (const Finding &f : findings)
        ADD_FAILURE() << f.file << ":" << f.line << ": "
                      << f.message;
    // The pass must actually be auditing the tree, not silently
    // matching nothing: the engine's checkpoint pair is the anchor.
    EXPECT_TRUE(corpus.byRel.count("src/sim/act_engine.cc"));
}

TEST(AnalyzePasses, RealTreeAnalyzesWithoutErrors)
{
    const fs::path root(GRAPHENE_REPO_ROOT);
    const Corpus corpus =
        buildCorpus(root, root / "tools/analyze/layers.toml",
                    root / "tools/analyze/coverage_baseline.txt");
    ASSERT_GT(corpus.files.size(), 100u); // the whole tree, not a stub
    const auto findings = runPasses(corpus, {});
    for (const auto &f : findings)
        EXPECT_NE(f.severity, "error")
            << f.file << ":" << f.line << " [" << f.rule << "] "
            << f.message;
    EXPECT_EQ(errorCount(findings), 0u);
}

TEST(AnalyzePasses, LayersConfigRejectsUndeclaredDep)
{
    // Referential integrity of the config itself: a dep naming a
    // layer that is never declared must be a parse error, or typos
    // would silently disable edges.
    const auto dir = fs::path(::testing::TempDir()) / "bad_layers";
    fs::create_directories(dir);
    const auto file = dir / "layers.toml";
    {
        std::ofstream out(file);
        out << "[layer.common]\n"
            << "paths = [\"src/common/\"]\n"
            << "deps = [\"does_not_exist\"]\n";
    }
    LayerConfig config;
    std::string error;
    EXPECT_FALSE(parseLayersFile(file, config, error));
    EXPECT_NE(error.find("does_not_exist"), std::string::npos);
}

} // namespace
