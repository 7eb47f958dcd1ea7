/**
 * @file
 * Tests for the declarative alert rules (DESIGN.md §16): the grammar
 * (all errors collected, not just the first), the `chunk` threshold
 * symbol, streak semantics (`for N` fires once per streak, missing
 * metrics break streaks), the offline/live equivalence, and the
 * alerts.jsonl artifact.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/alerts.hh"

namespace graphene {
namespace obs {
namespace {


TEST(ParseAlertRules, GrammarAndDescribeRoundTrip)
{
    const Result<std::vector<AlertRule>> parsed = parseAlertRules(
        "# watchers for the soak run\n"
        "\n"
        "missed: missed_victim_rate > 0 for 2\n"
        "full: peak_buffered >= chunk\n"
        "quiet: acts == 0\n");
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    const std::vector<AlertRule> &rules = parsed.value();
    ASSERT_EQ(rules.size(), 3u);

    EXPECT_EQ(rules[0].name, "missed");
    EXPECT_EQ(rules[0].metric, "missed_victim_rate");
    EXPECT_EQ(rules[0].op, AlertOp::Gt);
    EXPECT_DOUBLE_EQ(rules[0].threshold, 0.0);
    EXPECT_EQ(rules[0].forWindows, 2u);
    EXPECT_EQ(rules[0].describe(),
              "missed: missed_victim_rate > 0 for 2");

    EXPECT_TRUE(rules[1].thresholdIsChunk);
    EXPECT_EQ(rules[1].op, AlertOp::Ge);
    EXPECT_EQ(rules[1].describe(), "full: peak_buffered >= chunk");

    EXPECT_EQ(rules[2].op, AlertOp::Eq);
    EXPECT_EQ(rules[2].forWindows, 1u);
    EXPECT_EQ(rules[2].describe(), "quiet: acts == 0");

    // describe() re-parses to the same rule (the round trip the
    // alerts.jsonl spec lines rely on).
    for (const AlertRule &rule : rules) {
        const auto again = parseAlertRules(rule.describe() + "\n");
        ASSERT_TRUE(again.ok());
        ASSERT_EQ(again.value().size(), 1u);
        EXPECT_EQ(again.value()[0].describe(), rule.describe());
    }
}

TEST(ParseAlertRules, CollectsEveryBadLine)
{
    const Result<std::vector<AlertRule>> parsed = parseAlertRules(
        "ok: acts > 1\n"
        "nocolon acts > 1\n"
        "badop: acts ~ 1\n"
        "badnum: acts > banana\n"
        "badfor: acts > 1 for 0\n"
        "ok: acts < 5\n"); // duplicate name
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code(), ErrorCode::Parse);
    const std::string what = parsed.error().describe();
    // Every malformed line is reported, with its line number.
    EXPECT_NE(what.find("2"), std::string::npos);
    EXPECT_NE(what.find("~"), std::string::npos);
    EXPECT_NE(what.find("banana"), std::string::npos);
    EXPECT_NE(what.find("for"), std::string::npos);
    EXPECT_NE(what.find("duplicate"), std::string::npos);
}

TEST(AlertEngine, ForNFiresOncePerStreak)
{
    const auto rules =
        parseAlertRules("hot: acts > 10 for 2\n").value();
    AlertEngine engine(rules, 0.0);

    // Window 0 satisfies (streak 1): no fire yet.
    EXPECT_TRUE(engine.onWindow(0, {{"acts", 20.0}}).empty());
    // Window 1 completes the streak: fires exactly now.
    ASSERT_EQ(engine.onWindow(1, {{"acts", 30.0}}).size(), 1u);
    // Window 2 continues the same streak: no re-fire.
    EXPECT_TRUE(engine.onWindow(2, {{"acts", 40.0}}).empty());
    // Broken, then rebuilt: fires again at the new streak's end.
    EXPECT_TRUE(engine.onWindow(3, {{"acts", 1.0}}).empty());
    EXPECT_TRUE(engine.onWindow(4, {{"acts", 50.0}}).empty());
    ASSERT_EQ(engine.onWindow(5, {{"acts", 60.0}}).size(), 1u);
    EXPECT_EQ(engine.firedCount(), 2u);
}

TEST(AlertEngine, MissingMetricBreaksStreak)
{
    const auto rules =
        parseAlertRules("hot: acts > 10 for 2\n").value();
    AlertEngine engine(rules, 0.0);
    EXPECT_TRUE(engine.onWindow(0, {{"acts", 20.0}}).empty());
    // The metric vanished: a window without it cannot satisfy.
    EXPECT_TRUE(engine.onWindow(1, {{"other", 1.0}}).empty());
    EXPECT_TRUE(engine.onWindow(2, {{"acts", 20.0}}).empty());
    ASSERT_EQ(engine.onWindow(3, {{"acts", 20.0}}).size(), 1u);
}

TEST(AlertEngine, ChunkSymbolResolvesPerSession)
{
    const auto rules =
        parseAlertRules("full: buffered_rows >= chunk\n").value();
    AlertEngine small(rules, 4.0);
    AlertEngine large(rules, 100.0);
    EXPECT_EQ(small.onWindow(0, {{"buffered_rows", 5.0}}).size(), 1u);
    EXPECT_TRUE(large.onWindow(0, {{"buffered_rows", 5.0}}).empty());
}

TEST(EvaluateSeries, MatchesLiveEngineAndOrdersEvents)
{
    const auto rules = parseAlertRules("hot: acts > 10 for 2\n"
                                       "quiet: acts == 0\n")
                           .value();
    SessionSeries series;
    series.tenant = "t3";
    const double acts[] = {20.0, 30.0, 0.0, 40.0, 50.0};
    for (std::size_t i = 0; i < 5; ++i) {
        WindowDelta w;
        w.window = i;
        w.values["acts"] = acts[i];
        series.windows.push_back(w);
    }

    const std::vector<AlertEvent> events =
        evaluateSeries(rules, series, 0.0);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].rule, "hot");
    EXPECT_EQ(events[0].window, 1u);
    EXPECT_DOUBLE_EQ(events[0].value, 30.0);
    EXPECT_EQ(events[1].rule, "quiet");
    EXPECT_EQ(events[1].window, 2u);
    EXPECT_EQ(events[2].rule, "hot");
    EXPECT_EQ(events[2].window, 4u);
    for (const AlertEvent &e : events)
        EXPECT_EQ(e.tenant, "t3");

    // Same semantics as feeding the live engine window by window.
    AlertEngine live(rules, 0.0);
    std::size_t fired = 0;
    for (const auto &w : series.windows)
        fired += live.onWindow(w.window, w.values).size();
    EXPECT_EQ(fired, events.size());
}

TEST(WriteAlertsJsonl, HeaderSpecsEventsAndSummary)
{
    const auto rules = parseAlertRules("hot: acts > 10\n"
                                       "cold: acts == 0\n")
                           .value();
    std::vector<AlertEvent> events;
    events.push_back({"t0", "hot", 2, 42.0});

    std::ostringstream os;
    writeAlertsJsonl(os, rules, events);
    const std::string text = os.str();
    EXPECT_NE(text.find("graphene-obs-alerts-v1"), std::string::npos);
    EXPECT_NE(text.find("hot: acts > 10"), std::string::npos);
    EXPECT_NE(text.find("\"tenant\":\"t0\""), std::string::npos);
    EXPECT_NE(text.find("\"window\":2"), std::string::npos);
    // The summary counts every rule, including never-fired ones.
    EXPECT_NE(text.find("\"cold\":0"), std::string::npos);
    EXPECT_NE(text.find("\"hot\":1"), std::string::npos);

    std::ostringstream again;
    writeAlertsJsonl(again, rules, events);
    EXPECT_EQ(text, again.str());
}

} // namespace
} // namespace obs
} // namespace graphene
