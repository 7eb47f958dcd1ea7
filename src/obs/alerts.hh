/**
 * @file
 * Declarative alert rules over the windowed telemetry series
 * (DESIGN.md §16).
 *
 * A rules file is a line-oriented grammar:
 *
 *     # comment
 *     <name>: <metric> <op> <value> [for <N>]
 *
 * e.g. `missed: missed_victim_rate > 0 for 2` fires when the metric's
 * per-window delta satisfies the comparison for N *consecutive*
 * closed windows. `<value>` is a number, or the symbol `chunk` which
 * resolves to the session's streaming chunk bound at evaluation time
 * (so `occupancy: peak_buffered >= chunk` is writable without baking
 * a constant into the rules file). Parsing is Result-typed and
 * collects every bad line, not just the first.
 *
 * Evaluation has two homes with one shared semantics:
 *  - AlertEngine: live, inside a session — fed each window delta as
 *    it closes, returns the rules that fire *now* so the probe can
 *    emit EventKind::Alert trace events and bump live counters.
 *    Live streaks restart on checkpoint resume (deliberately: the
 *    engine is not part of the checkpoint payload).
 *  - evaluateSeries(): offline, at driver drain — replays a complete
 *    SessionSeries through the same streak logic, producing the
 *    canonical alerts.jsonl artifact. Because it sees the full
 *    series, the artifact is byte-identical across --jobs counts AND
 *    across a SIGKILL + --resume run.
 */

#ifndef OBS_ALERTS_HH
#define OBS_ALERTS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "obs/rollup.hh"

namespace graphene {
namespace obs {

/** Comparison operator of one alert rule. */
enum class AlertOp : std::uint8_t {
    Gt, ///< metric >  value
    Ge, ///< metric >= value
    Lt, ///< metric <  value
    Le, ///< metric <= value
    Eq, ///< metric == value (exact; deltas are integral in practice)
    Ne, ///< metric != value
};

/** Stable spelling of @p op, as written in rules files. */
const char *alertOpName(AlertOp op);

/** One parsed rule. */
struct AlertRule
{
    std::string name;   ///< Rule label (unique within a file).
    std::string metric; ///< Window-delta key to watch.
    AlertOp op = AlertOp::Gt;
    double threshold = 0.0;
    /** Threshold is the symbol `chunk`, resolved per session. */
    bool thresholdIsChunk = false;
    /** Consecutive windows required before firing (>= 1). */
    std::uint64_t forWindows = 1;

    /** `name: metric op value [for N]` round-trip spelling. */
    std::string describe() const;
};

/** One firing: rule x tenant x window ordinal. */
struct AlertEvent
{
    std::string tenant;
    std::string rule;
    std::uint64_t window = 0;
    double value = 0.0; ///< The delta that completed the streak.
};

/**
 * Parse a rules file body (not a path: callers own I/O). Collects
 * every malformed line into one Error.
 */
Result<std::vector<AlertRule>> parseAlertRules(const std::string &text);

/** parseAlertRules over a file's contents. */
Result<std::vector<AlertRule>> loadAlertRules(const std::string &path);

/**
 * Live evaluator: one per session, fed each closed window in order.
 * Streak state is session-local, so concurrent sessions never share
 * mutable telemetry state.
 */
class AlertEngine
{
  public:
    AlertEngine() = default;

    /**
     * @param rules parsed rule set (shared, immutable).
     * @param chunk the session's chunk bound, resolving `chunk`
     *        thresholds; 0 when the session has none.
     */
    AlertEngine(std::vector<AlertRule> rules, double chunk)
        : _rules(std::move(rules)), _chunk(chunk),
          _streaks(_rules.size(), 0)
    {
    }

    /**
     * Feed one closed window's deltas. Returns the indices (into
     * rules()) of rules whose streak reached forWindows exactly at
     * this window — each firing is reported once per streak.
     */
    std::vector<std::size_t>
    onWindow(std::uint64_t window,
             const std::map<std::string, double> &deltas);

    const std::vector<AlertRule> &rules() const { return _rules; }
    std::uint64_t firedCount() const { return _fired; }

  private:
    std::vector<AlertRule> _rules;
    double _chunk = 0.0;
    std::vector<std::uint64_t> _streaks;
    std::uint64_t _fired = 0;
};

/**
 * Offline evaluator: replay @p series through the streak logic.
 * Missing metrics count as streak breaks (a window that lacks the
 * metric cannot satisfy the rule).
 */
std::vector<AlertEvent>
evaluateSeries(const std::vector<AlertRule> &rules,
               const SessionSeries &series, double chunk);

/**
 * The alerts artifact: a header, one line per event (sorted by
 * tenant, then window, then rule — the order evaluateSeries yields
 * when called tenant-by-tenant), and a summary line with per-rule
 * fire counts.
 */
void writeAlertsJsonl(std::ostream &os,
                      const std::vector<AlertRule> &rules,
                      const std::vector<AlertEvent> &events);

} // namespace obs
} // namespace graphene

#endif // OBS_ALERTS_HH
