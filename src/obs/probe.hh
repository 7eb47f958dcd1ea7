/**
 * @file
 * obs::Probe — the one interface instrumented components see.
 *
 * A probe is a (tracer, metrics, bank) triple handed to a component
 * at construction/attach time; the component calls emit() for trace
 * events, count() for scalar metrics, and sample() for histograms,
 * never touching the sinks directly. Probes are value types, cheap
 * to copy, and safe to use detached (all-null probe: every call is a
 * no-op) — so components need no conditional wiring.
 *
 * Under GRAPHENE_OBS_OFF the probe is an *empty* type (static_assert
 * below) with inline no-op methods: an attached probe occupies no
 * storage ([[no_unique_address]] at the member sites) and every call
 * compiles to nothing. This is the zero-size compile-out guarantee
 * of DESIGN.md §11, and the only type the switch changes: the sinks
 * behind a probe are compiled in both builds.
 */

#ifndef OBS_PROBE_HH
#define OBS_PROBE_HH

#include <cstdint>
#include <type_traits>

#include "obs/event.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace graphene {
namespace obs {

#ifndef GRAPHENE_OBS_OFF

class Probe
{
  public:
    Probe() = default;

    Probe(Tracer *tracer, MetricsRegistry *metrics, std::uint16_t bank)
        : _tracer(tracer), _metrics(metrics), _bank(bank)
    {
    }

    /** Record one trace event in this probe's bank. */
    void emit(Cycle cycle, EventKind kind, Row row = Row::invalid(),
              std::uint32_t arg = 0) const
    {
        if (_tracer)
            _tracer->record(Event{cycle, row, arg, _bank, kind});
    }

    /** Add @p v to the named scalar metric. */
    void count(Cycle cycle, const char *name, double v = 1.0) const
    {
        if (_metrics)
            _metrics->add(cycle, name, v);
    }

    /** Record one histogram sample. */
    void sample(Cycle cycle, const char *name, double v,
                std::size_t num_buckets, double max) const
    {
        if (_metrics)
            _metrics->sample(cycle, name, v, num_buckets, max);
    }

    std::uint16_t bank() const { return _bank; }

  private:
    Tracer *_tracer = nullptr;
    MetricsRegistry *_metrics = nullptr;
    std::uint16_t _bank = 0;
};

#else // GRAPHENE_OBS_OFF

/** Compiled-out probe: empty, every call a no-op. */
class Probe
{
  public:
    Probe() = default;
    Probe(Tracer *, MetricsRegistry *, std::uint16_t) {}

    void emit(Cycle, EventKind, Row = Row::invalid(),
              std::uint32_t = 0) const
    {
    }
    void count(Cycle, const char *, double = 1.0) const {}
    void sample(Cycle, const char *, double, std::size_t, double) const
    {
    }
    std::uint16_t bank() const { return 0; }
};

static_assert(std::is_empty_v<Probe>,
              "GRAPHENE_OBS_OFF must compile probes down to empty "
              "types so [[no_unique_address]] members vanish");

#endif // GRAPHENE_OBS_OFF

} // namespace obs
} // namespace graphene

#endif // OBS_PROBE_HH
