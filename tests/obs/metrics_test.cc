/**
 * @file
 * Tests for the windowed metrics registry: per-window delta series,
 * the conservation invariant (sum of window deltas == end-of-run
 * total, for scalars and histogram sample counts), max-monotonic
 * window attribution, the JSONL exporter, and the registry's
 * checkpoint bytes (pinned by a golden file, and rejected when
 * malformed). The registry is compiled in both builds; only
 * obs::Probe is emptied by GRAPHENE_OBS_OFF.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <type_traits>

#include "ckpt/io.hh"
#include "obs/metrics.hh"
#include "obs/probe.hh"
#include "obs/trace.hh"

namespace graphene {
namespace obs {
namespace {

TEST(ObsCompileOut, OnlyTheProbeIsEmpty)
{
    // The one type GRAPHENE_OBS_OFF changes: [[no_unique_address]]
    // probe members vanish from every host.
    EXPECT_EQ(std::is_empty_v<Probe>, !kEnabled);
}

TEST(MetricsRegistry, ClosesWindowsAtBoundaries)
{
    MetricsRegistry m;
    m.beginWindows(Cycle{100});
    m.add(Cycle{10}, "acts");
    m.add(Cycle{50}, "acts");
    m.add(Cycle{150}, "acts"); // closes window 0
    m.add(Cycle{320}, "acts"); // closes windows 1 and 2
    m.finish();

    ASSERT_EQ(m.windows().size(), 4u);
    EXPECT_EQ(m.windows()[0].window, 0u);
    EXPECT_DOUBLE_EQ(m.windows()[0].deltas.at("acts"), 2.0);
    EXPECT_DOUBLE_EQ(m.windows()[1].deltas.at("acts"), 1.0);
    // Window 2 saw nothing; its delta is an explicit zero (known
    // statistics are reported in every window once created).
    EXPECT_DOUBLE_EQ(m.windows()[2].deltas.at("acts"), 0.0);
    EXPECT_DOUBLE_EQ(m.windows()[3].deltas.at("acts"), 1.0);
}

TEST(MetricsRegistry, ScalarConservation)
{
    MetricsRegistry m;
    m.beginWindows(Cycle{64});
    double expected = 0.0;
    for (std::uint64_t c = 0; c < 1000; c += 7) {
        const double v = 1.0 + static_cast<double>(c % 3);
        m.add(Cycle{c}, "work", v);
        expected += v;
    }
    m.finish();

    EXPECT_DOUBLE_EQ(m.totals().get("work"), expected);
    // The regression the windowed series exists to guard: deltas must
    // add back up to the end-of-run total.
    EXPECT_DOUBLE_EQ(m.windowSum("work"), expected);
}

TEST(MetricsRegistry, HistogramSampleConservation)
{
    MetricsRegistry m;
    m.beginWindows(Cycle{50});
    std::uint64_t samples = 0;
    for (std::uint64_t c = 0; c < 400; c += 3) {
        m.sample(Cycle{c}, "lat", static_cast<double>(c % 90), 16,
                 64.0);
        ++samples;
    }
    m.finish();

    const Histogram *h = m.totals().findHistogram("lat");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->samples(), samples);
    // Histogram windows are tracked as "<name>.samples" deltas; the
    // overflowed samples (>= 64.0 here) must be conserved too.
    EXPECT_GT(h->overflow(), 0u);
    EXPECT_DOUBLE_EQ(m.windowSum("lat.samples"),
                     static_cast<double>(samples));
}

TEST(MetricsRegistry, WindowAttributionIsMaxMonotonic)
{
    MetricsRegistry m;
    m.beginWindows(Cycle{100});
    m.add(Cycle{250}, "x"); // opens window 2, closing 0 and 1
    m.add(Cycle{10}, "x");  // late update: stays in window 2
    m.finish();

    ASSERT_EQ(m.windows().size(), 3u);
    EXPECT_EQ(m.windows()[0].deltas.count("x"), 0u);
    EXPECT_EQ(m.windows()[1].deltas.count("x"), 0u);
    EXPECT_DOUBLE_EQ(m.windows()[2].deltas.at("x"), 2.0);
    EXPECT_DOUBLE_EQ(m.windowSum("x"), 2.0);
}

TEST(MetricsRegistry, ZeroWindowLengthKeepsOneWindow)
{
    MetricsRegistry m;
    m.beginWindows(Cycle{});
    m.add(Cycle{5}, "x");
    m.add(Cycle{100000}, "x");
    m.finish();
    ASSERT_EQ(m.windows().size(), 1u);
    EXPECT_DOUBLE_EQ(m.windows()[0].deltas.at("x"), 2.0);
}

TEST(MetricsRegistry, FinishIsIdempotent)
{
    MetricsRegistry m;
    m.beginWindows(Cycle{10});
    m.add(Cycle{3}, "x");
    m.finish();
    m.finish();
    EXPECT_EQ(m.windows().size(), 1u);
}

TEST(MetricsRegistry, WriteJsonlHasHeaderWindowsAndTotals)
{
    MetricsRegistry m;
    m.beginWindows(Cycle{100});
    m.add(Cycle{10}, "acts", 3.0);
    m.add(Cycle{150}, "acts", 2.0);
    m.finish();

    std::ostringstream os;
    m.writeJsonl(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("graphene-obs-metrics-v1"),
              std::string::npos);
    EXPECT_NE(text.find("\"acts\":3"), std::string::npos);
    EXPECT_NE(text.find("\"totals\":true"), std::string::npos);

    // Byte-determinism: exporting twice yields identical bytes.
    std::ostringstream again;
    m.writeJsonl(again);
    EXPECT_EQ(text, again.str());
}

TEST(MetricsRegistry, WriteJsonlPinsSchemaAndEscapesNames)
{
    MetricsRegistry m;
    m.beginWindows(Cycle{100});
    // Metric names are arbitrary caller strings: quotes, backslashes
    // and colons must survive the JSONL round trip (the rollup
    // reader's round-trip test parses this back).
    m.add(Cycle{10}, "weird\"name\\with:stuff", 2.0);
    m.finish();

    std::ostringstream os;
    m.writeJsonl(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("\"schema\":1"), std::string::npos);
    EXPECT_NE(text.find("\\\"name\\\\with:stuff"),
              std::string::npos);
    // The raw unescaped name must not appear anywhere.
    EXPECT_EQ(text.find("weird\"name\\with"), std::string::npos);
}

TEST(MetricsRegistry, TotalsCarryTailQuantiles)
{
    MetricsRegistry m;
    m.beginWindows(Cycle{100});
    for (std::uint64_t c = 0; c < 100; ++c)
        m.sample(Cycle{c}, "lat", static_cast<double>(c), 10, 100.0);
    m.finish();

    std::ostringstream os;
    m.writeJsonl(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("\"lat.p50\":"), std::string::npos);
    EXPECT_NE(text.find("\"lat.p95\":"), std::string::npos);
    EXPECT_NE(text.find("\"lat.p99\":"), std::string::npos);
    EXPECT_NE(text.find("\"lat.samples\":100"), std::string::npos);
}

TEST(Probe, DetachedProbeIsSafe)
{
    const Probe probe;
    probe.emit(Cycle{1}, EventKind::Act, Row{3});
    probe.count(Cycle{1}, "x");
    probe.sample(Cycle{1}, "h", 1.0, 4, 8.0);
    SUCCEED();
}

TEST(Probe, RoutesToTracerAndMetrics)
{
    Tracer tracer(16);
    MetricsRegistry metrics;
    metrics.beginWindows(Cycle{100});
    const Probe probe(&tracer, &metrics, 3);

    probe.emit(Cycle{7}, EventKind::VictimRefresh, Row{9}, 2);
    probe.count(Cycle{7}, "scheme.victim_refresh_events");
    metrics.finish();

    if (!kEnabled) {
        // Compiled out: the probe is empty and routes nothing.
        EXPECT_EQ(tracer.banks(), 0u);
        EXPECT_TRUE(metrics.totals().scalars().empty());
        return;
    }
    ASSERT_EQ(tracer.banks(), 4u); // banks 0..3 allocated
    ASSERT_EQ(tracer.ring(3).size(), 1u);
    const Event &e = tracer.ring(3).events()[0];
    EXPECT_EQ(e.kind, EventKind::VictimRefresh);
    EXPECT_EQ(e.row, Row{9});
    EXPECT_EQ(e.arg, 2u);
    EXPECT_EQ(e.bank, 3u);
    EXPECT_DOUBLE_EQ(
        metrics.totals().get("scheme.victim_refresh_events"), 1.0);
}

/** The registry tests/data/obs/registry_state.bin was saved from:
 *  three scalars (one with an escape-laden name), two histograms with
 *  bucketed, overflowed and negative samples, three closed windows
 *  and an open fourth. */
MetricsRegistry
goldenRegistry()
{
    MetricsRegistry m;
    m.beginWindows(Cycle{100});
    m.add(Cycle{5}, "acts");
    m.add(Cycle{20}, "acts", 2.5);
    m.sample(Cycle{30}, "lat", 3.0, 8, 16.0);
    m.sample(Cycle{130}, "lat", 40.0, 8, 16.0);
    m.add(Cycle{150}, "weird\"name\\with:stuff", 0.1);
    m.sample(Cycle{210}, "depth", -1.0, 4, 1.0);
    m.sample(Cycle{220}, "depth", 0.3, 4, 1.0);
    m.add(Cycle{350}, "acts");
    m.sample(Cycle{351}, "lat", 15.999, 8, 16.0);
    return m;
}

std::vector<std::uint8_t>
savedBytes(const MetricsRegistry &m)
{
    ckpt::Writer w;
    m.saveState(w);
    return w.data();
}

std::string
jsonl(const MetricsRegistry &m)
{
    std::ostringstream os;
    m.writeJsonl(os);
    return os.str();
}

TEST(MetricsRegistry, CheckpointBytesMatchGolden)
{
    // The golden file pins the registry's share of the checkpoint
    // layout: saveState must keep writing exactly these bytes. The
    // test only reads it. Regenerate it by hand, and only together
    // with a ckpt format version bump: write savedBytes(goldenRegistry())
    // to tests/data/obs/registry_state.bin and commit the result.
    const std::filesystem::path path =
        std::filesystem::path(GRAPHENE_TEST_DATA_DIR) / "obs" /
        "registry_state.bin";
    const std::vector<std::uint8_t> want = savedBytes(goldenRegistry());
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is) << path;
    const std::vector<std::uint8_t> golden(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    EXPECT_EQ(want, golden);

    // Restoring the golden bytes rebuilds the same registry.
    MetricsRegistry restored;
    ckpt::Reader r(golden);
    restored.restoreState(r);
    ASSERT_TRUE(r.finish().ok()) << r.finish().error().describe();
    EXPECT_EQ(savedBytes(restored), golden);
    EXPECT_EQ(jsonl(restored), jsonl(goldenRegistry()));
}

/** A registry payload holding scalars @p names and one histogram
 *  "h" of the given shape; everything else empty. */
std::vector<std::uint8_t>
registryPayload(const std::vector<std::string> &names,
                const std::vector<std::uint64_t> &buckets, double width,
                std::uint64_t count, std::uint64_t overflow)
{
    ckpt::Writer w;
    w.u64(names.size());
    for (const std::string &name : names) {
        w.str(name);
        w.f64(1.0);
    }
    w.u64(1);
    w.str("h");
    w.u64(buckets.size());
    for (std::uint64_t b : buckets)
        w.u64(b);
    w.f64(width);
    w.u64(count);
    w.u64(overflow);
    w.f64(0.0);
    w.f64(0.0);
    for (int list = 0; list < 3; ++list) // lastScalar, lastHist, rows
        w.u64(0);
    w.u64(100);
    w.u64(0);
    w.boolean(true);
    return w.data();
}

TEST(MetricsRegistry, RestoreRejectsLayoutsSaveStateNeverWrites)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        cases = {
            {"zero buckets", registryPayload({"a"}, {}, 1.0, 0, 0)},
            {"zero width", registryPayload({"a"}, {1}, 0.0, 1, 0)},
            {"negative width", registryPayload({"a"}, {1}, -2.0, 1, 0)},
            {"NaN width", registryPayload({"a"}, {1}, nan, 1, 0)},
            {"infinite width", registryPayload({"a"}, {1}, inf, 1, 0)},
            {"count above buckets + overflow",
             registryPayload({"a"}, {1, 2}, 1.0, 4, 0)},
            {"count below buckets + overflow",
             registryPayload({"a"}, {1, 2}, 1.0, 3, 1)},
            // A wrapping u64 sum of these buckets would equal 1.
            {"bucket sum wraps",
             registryPayload({"a"}, {1ull << 63, 1ull << 63, 1}, 1.0,
                             1, 0)},
            {"names out of order",
             registryPayload({"b", "a"}, {1}, 1.0, 1, 0)},
            {"duplicate names", registryPayload({"a", "a"}, {1}, 1.0, 1, 0)},
        };
    // The well-formed twin restores, so each case fails for its flaw.
    {
        MetricsRegistry m;
        const auto payload =
            registryPayload({"a", "b"}, {1, 2}, 1.0, 4, 1);
        ckpt::Reader r(payload);
        m.restoreState(r);
        ASSERT_TRUE(r.finish().ok());
        EXPECT_EQ(m.totals().findHistogram("h")->samples(), 4u);
    }
    for (const auto &[what, payload] : cases) {
        MetricsRegistry m = goldenRegistry();
        ckpt::Reader r(payload);
        m.restoreState(r);
        EXPECT_FALSE(r.finish().ok()) << what;
        // A rejected payload leaves the registry untouched.
        EXPECT_EQ(jsonl(m), jsonl(goldenRegistry())) << what;
    }
}

} // namespace
} // namespace obs
} // namespace graphene
