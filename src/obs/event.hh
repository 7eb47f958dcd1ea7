/**
 * @file
 * The observability event taxonomy: one POD record per interesting
 * simulator occurrence, timestamped in simulation cycles and tagged
 * with the (flat, cross-channel) bank it happened in.
 *
 * Events are the unit of the tracing layer (obs/trace.hh): schemes,
 * controllers, and serve sessions emit them through obs::Probe,
 * per-bank ring buffers retain a bounded prefix, and the exporters
 * serialise them as JSONL or Chrome trace_event JSON.
 *
 * Nothing *records* an event when GRAPHENE_OBS_OFF is defined:
 * obs::Probe collapses to an empty type and every emission site
 * compiles to nothing (see DESIGN.md §11 for the zero-impact
 * guarantee).
 */

#ifndef OBS_EVENT_HH
#define OBS_EVENT_HH

#include <cstdint>
#include <type_traits>

#include "common/types.hh"

namespace graphene {
namespace obs {

/** True when the observability layer is compiled in. */
#ifdef GRAPHENE_OBS_OFF
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/**
 * What happened. The tracker events mirror the Misra-Gries
 * operations of the paper: "spill" is the spillover-counter
 * increment that replaces the classic shared decrement (Section
 * IV-A), "reset" the per-window table wipe.
 */
enum class EventKind : std::uint8_t {
    Act,            ///< One ACT command reached the bank.
    PeriodicRef,    ///< One auto-refresh (REF) command.
    VictimRefresh,  ///< A scheme requested victim refreshes.
    ThresholdCross, ///< A tracked count crossed the threshold.
    TrackerInsert,  ///< Misra-Gries: new row claimed a table entry.
    TrackerSpill,   ///< Misra-Gries: spillover counter incremented.
    TrackerReset,   ///< Tracker state wiped at a window boundary.
    QueueStall,     ///< Request delayed (refresh debt / batch cap).
    Alert,          ///< A telemetry alert rule fired (obs/alerts.hh).
};

/** Stable lower-case name of @p kind, used in every exporter. */
inline const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Act:            return "act";
      case EventKind::PeriodicRef:    return "ref";
      case EventKind::VictimRefresh:  return "victim-refresh";
      case EventKind::ThresholdCross: return "threshold-cross";
      case EventKind::TrackerInsert:  return "tracker-insert";
      case EventKind::TrackerSpill:   return "tracker-spill";
      case EventKind::TrackerReset:   return "tracker-reset";
      case EventKind::QueueStall:     return "queue-stall";
      case EventKind::Alert:          return "alert";
    }
    return "unknown";
}

/**
 * One trace record. `row` is the subject row when the event has one
 * (Row::invalid() otherwise); `arg` carries a kind-specific payload:
 * rows refreshed for VictimRefresh, estimated count for
 * ThresholdCross, table slot for Tracker*, stall cycles for
 * QueueStall, rule ordinal for Alert.
 */
struct Event
{
    Cycle cycle{};
    Row row = Row::invalid();
    std::uint32_t arg = 0;
    std::uint16_t bank = 0;
    EventKind kind = EventKind::Act;
};

static_assert(std::is_trivially_copyable_v<Event>,
              "events are raw records: memcpy-able, no ownership");

} // namespace obs
} // namespace graphene

#endif // OBS_EVENT_HH
