/**
 * @file
 * The windowed metrics registry: named Scalar/Histogram statistics
 * (common/stats.hh) snapshotted at every tREFW-window boundary.
 *
 * Probe sites update metrics with the current simulation cycle; the
 * registry closes a window whenever an update lands past the current
 * window boundary, recording the *delta* of every statistic since
 * the previous boundary. The series therefore satisfies conservation
 * by construction — the sum of a statistic's window deltas equals
 * its end-of-run total — which tests assert (tests/obs) and which
 * replaces the old ad-hoc end-of-run counters with data you can plot
 * over time.
 *
 * Window attribution is max-monotonic: the registry never reopens a
 * closed window, so an update whose cycle is slightly behind the
 * newest boundary (banks advance independently) lands in the current
 * window. Attribution is a pure function of the update stream:
 * identical runs produce identical series.
 *
 * The registry is compiled in both builds. GRAPHENE_OBS_OFF empties
 * obs::Probe, so no probe site updates it there; obs::kEnabled keeps
 * the runner from attaching a sink and the serve driver from writing
 * telemetry.
 */

#ifndef OBS_METRICS_HH
#define OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace graphene {

namespace ckpt {
class Reader;
class Writer;
} // namespace ckpt

namespace obs {

/**
 * Schema ordinal of the graphene-obs-metrics-v1 JSONL stream. Bump
 * only with a reader-visible layout change; the rollup reader rejects
 * files from a newer schema instead of guessing.
 */
inline constexpr std::uint32_t kMetricsJsonlSchema = 1;

class MetricsRegistry
{
  public:
    /** One closed window: its ordinal and every statistic's delta. */
    struct WindowRow
    {
        std::uint64_t window = 0;
        std::map<std::string, double> deltas;
    };

    /**
     * Set the window length (tREFW in cycles) and clear any series.
     * Zero keeps everything in one window.
     */
    void beginWindows(Cycle window_cycles);

    /** Add @p v to scalar @p name, attributing to @p cycle's window. */
    void add(Cycle cycle, const std::string &name, double v = 1.0);

    /** Record one histogram sample (get-or-create with the given
     *  bucketing; the first call fixes the shape). */
    void sample(Cycle cycle, const std::string &name, double v,
                std::size_t num_buckets, double max);

    /** Close the final (partial) window. Idempotent. */
    void finish();

    Cycle windowCycles() const { return _windowCycles; }
    const StatGroup &totals() const { return _group; }
    const std::vector<WindowRow> &windows() const { return _rows; }

    /** Sum of @p name's deltas over all closed windows. */
    double windowSum(const std::string &name) const;

    /**
     * JSONL: a header line, one flat object per closed window
     * (statistic name -> delta), and a totals line.
     */
    void writeJsonl(std::ostream &os) const;

    /**
     * Totals-line fields in emission order: every scalar, then per
     * histogram its `.samples` count and bucket-interpolated
     * `.p50/.p95/.p99` (rollups and alert rules watch tails, not
     * means). writeJsonl and obs::seriesFromRegistry both use it.
     */
    std::vector<std::pair<std::string, double>> totalFields() const;

    /**
     * Checkpoint the full registry state (every map in sorted key
     * order), so a resumed run continues the same series.
     */
    void saveState(ckpt::Writer &w) const;

    /**
     * Inverse of saveState(). Fails @p r, leaving the registry as it
     * was, on a layout no saveState() writes: unsorted or duplicate
     * names, a histogram without buckets, a non-finite or
     * non-positive bucket width, or a sample count that disagrees
     * with its buckets plus overflow.
     */
    void restoreState(ckpt::Reader &r);

  private:
    void advanceTo(Cycle cycle);
    void closeWindow();

    StatGroup _group;
    std::map<std::string, double> _lastScalar;
    std::map<std::string, std::uint64_t> _lastHistSamples;
    std::vector<WindowRow> _rows;
    Cycle _windowCycles{};
    std::uint64_t _currentWindow = 0;
    bool _open = false;
};

} // namespace obs
} // namespace graphene

#endif // OBS_METRICS_HH
