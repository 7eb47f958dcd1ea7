/**
 * @file
 * Tests for the telemetry exporters (DESIGN.md §16): the status
 * snapshot's render contract (deterministic bytes, one session
 * object per line, no volatile fields), finalize()'s sort+tally,
 * atomic file rotation, Prometheus name sanitisation, and the text
 * exposition's family grouping.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "obs/export.hh"

namespace graphene {
namespace obs {
namespace {

namespace fs = std::filesystem;

ServiceStatus
sampleStatus()
{
    ServiceStatus status;
    status.quantumCycles = 500000;
    SessionStatus a;
    a.id = "t01";
    a.scheme = "Graphene";
    a.source = "pattern:s1";
    a.state = "done";
    a.lastWindow = 3;
    a.jsonlLines = 5;
    a.bufferedRows = 17;
    a.chunkRows = 256;
    a.alertsFired = 2;
    SessionStatus b;
    b.id = "t00";
    b.scheme = "PARA";
    b.source = "pattern:uniform";
    b.state = "failed";
    b.failure = "Io";
    status.sessions.push_back(a);
    status.sessions.push_back(b);
    status.finalize();
    return status;
}


TEST(ServiceStatus, FinalizeSortsAndTallies)
{
    const ServiceStatus status = sampleStatus();
    ASSERT_EQ(status.sessions.size(), 2u);
    EXPECT_EQ(status.sessions[0].id, "t00"); // sorted by id
    EXPECT_EQ(status.sessions[1].id, "t01");
    EXPECT_EQ(status.done, 1u);
    EXPECT_EQ(status.failed, 1u);
    EXPECT_EQ(status.running, 0u);
    EXPECT_EQ(status.pending, 0u);
}

TEST(RenderStatusJson, OneSessionPerLineAndDeterministic)
{
    const ServiceStatus status = sampleStatus();
    const std::string text = renderStatusJson(status);
    EXPECT_EQ(text, renderStatusJson(status));

    EXPECT_NE(text.find("\"format\":\"graphene-serve-status-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"schema\":1"), std::string::npos);
    EXPECT_NE(text.find("\"failure\":\"Io\""), std::string::npos);
    // A healthy session carries no failure key at all.
    EXPECT_EQ(text.find("\"failure\":\"\""), std::string::npos);

    // Layout contract: exactly one '{"id":' line per session, so
    // grep/serve_dash's flat extractors work without a JSON parser.
    std::istringstream in(text);
    std::string line;
    std::size_t idLines = 0;
    while (std::getline(in, line))
        idLines += line.rfind("{\"id\":", 0) == 0;
    EXPECT_EQ(idLines, status.sessions.size());
}

TEST(WriteStatusJson, RotatesAtomicallyAndSidecarIsSeparate)
{
    int uniq = 0;
    const fs::path dir =
        fs::temp_directory_path() /
        ("export_test_" +
         std::to_string(reinterpret_cast<std::uintptr_t>(&uniq)));
    fs::create_directories(dir);
    const std::string path = (dir / "status.json").string();

    const ServiceStatus status = sampleStatus();
    ASSERT_TRUE(writeStatusJson(path, status).ok());
    std::ifstream is(path, std::ios::binary);
    const std::string bytes(std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>{});
    EXPECT_EQ(bytes, renderStatusJson(status));
    // No rename temporary may linger next to the artifact.
    std::size_t entries = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);

    // The volatile sidecar is a different file: wall-clock and jobs
    // never contaminate the deterministic artifact.
    const std::string meta = (dir / "status.meta.json").string();
    ASSERT_TRUE(writeStatusSidecar(meta, 1234, 16, 7).ok());
    std::ifstream ms(meta);
    std::string metaLine;
    ASSERT_TRUE(std::getline(ms, metaLine));
    EXPECT_NE(metaLine.find("\"volatile\":true"), std::string::npos);
    EXPECT_NE(metaLine.find("\"unix_ms\":1234"), std::string::npos);
    EXPECT_EQ(renderStatusJson(status).find("unix_ms"),
              std::string::npos);
    fs::remove_all(dir);
}

TEST(PromName, SanitisesToMetricAlphabet)
{
    EXPECT_EQ(promName("serve.alerts_fired"), "serve_alerts_fired");
    EXPECT_EQ(promName("a-b c"), "a_b_c");
    EXPECT_EQ(promName("ns:ok_9"), "ns:ok_9");
    // A leading digit is illegal in the exposition format.
    EXPECT_EQ(promName("9lives"), "_9lives");
    EXPECT_EQ(promName(""), "");
}

TEST(WriteExposition, GroupsFamiliesAndEmitsGauges)
{
    Rollup rollup;
    SessionSeries s1;
    s1.tenant = "t00";
    s1.totals["acts"] = 10.0;
    s1.haveTotals = true;
    SessionSeries s2;
    s2.tenant = "t01";
    s2.totals["acts"] = 32.0;
    s2.haveTotals = true;
    rollup.add(s1);
    rollup.add(s2);

    std::ostringstream os;
    writeExposition(os, rollup, sampleStatus());
    const std::string text = os.str();

    // One HELP/TYPE pair per family, every tenant labelled under it.
    EXPECT_EQ(text.find("# TYPE graphene_serve_acts_total counter"),
              text.rfind("# TYPE graphene_serve_acts_total counter"));
    EXPECT_NE(text.find("graphene_serve_acts_total{tenant=\"t00\"} "
                        "10"),
              std::string::npos);
    EXPECT_NE(text.find("graphene_serve_acts_total{tenant=\"t01\"} "
                        "32"),
              std::string::npos);
    EXPECT_NE(text.find("graphene_fleet_acts_total 42"),
              std::string::npos);
    EXPECT_NE(
        text.find("graphene_serve_sessions{state=\"failed\"} 1"),
        std::string::npos);
}

} // namespace
} // namespace obs
} // namespace graphene
