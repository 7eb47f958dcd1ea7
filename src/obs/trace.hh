/**
 * @file
 * The structured event tracer: one EventRing per (flat) bank, lazily
 * grown as banks first emit, plus exporters to JSONL and Chrome
 * trace_event JSON (loadable in Perfetto / chrome://tracing).
 *
 * Determinism contract: record() order per bank is the simulation's
 * own emission order, the drop policy is a pure function of that
 * order (obs/ring.hh), and the exporters serialise the global merge
 * in a stable (cycle, bank, per-bank sequence) order — so the same
 * simulated run always produces byte-identical trace files,
 * regardless of worker count or wall-clock conditions.
 */

#ifndef OBS_TRACE_HH
#define OBS_TRACE_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "obs/event.hh"
#include "obs/ring.hh"

namespace graphene {
namespace obs {

class Tracer
{
  public:
    explicit Tracer(std::size_t ring_capacity = kDefaultRingCapacity)
        : _capacity(ring_capacity ? ring_capacity : 1)
    {
    }

    /** Record one event into its bank's ring. */
    void record(const Event &e)
    {
        if (e.bank >= _rings.size())
            _rings.resize(e.bank + 1, EventRing(_capacity));
        _rings[e.bank].push(e);
    }

    /** Number of banks that have emitted at least once. */
    unsigned banks() const
    {
        return static_cast<unsigned>(_rings.size());
    }

    const EventRing &ring(unsigned bank) const { return _rings[bank]; }
    std::size_t ringCapacity() const { return _capacity; }

    /** Events retained across all banks. */
    std::uint64_t totalRetained() const;

    /** Events dropped (ring full) across all banks. */
    std::uint64_t totalDropped() const;

    /** Highest single-ring occupancy reached. */
    std::size_t peakOccupancy() const;

    /**
     * All retained events merged in stable (cycle, bank, per-bank
     * sequence) order — the order every exporter uses.
     */
    std::vector<Event> merged() const;

    /**
     * JSONL: one header line (format, banks, ring capacity, window
     * length), one line per event, one footer line with retained and
     * dropped totals (per bank and overall).
     */
    void writeEventsJsonl(std::ostream &os,
                          Cycle window_cycles = Cycle{}) const;

    /**
     * Chrome trace_event JSON: instant events on one track (tid) per
     * bank, timestamps in DRAM command cycles. Loads directly in
     * Perfetto (ui.perfetto.dev) and chrome://tracing.
     */
    void writeChromeTrace(std::ostream &os) const;

  private:
    std::size_t _capacity;
    std::vector<EventRing> _rings;
};

} // namespace obs
} // namespace graphene

#endif // OBS_TRACE_HH
