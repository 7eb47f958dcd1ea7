/**
 * @file
 * obs::Sink — the umbrella observability object for one run.
 *
 * A Sink owns one Tracer and one MetricsRegistry; simulation entry
 * points (sim::runSystem, sim::runActStream) take an optional
 * `Sink *` in their configs and hand probeFor() probes to the
 * components they build. The pointer is *never* part
 * of a configuration fingerprint: observability output lives beside
 * the deterministic artifact, not inside it (DESIGN.md §11).
 */

#ifndef OBS_OBS_HH
#define OBS_OBS_HH

#include "obs/metrics.hh"
#include "obs/probe.hh"
#include "obs/ring.hh"
#include "obs/trace.hh"

namespace graphene {
namespace obs {

struct Sink
{
    explicit Sink(std::size_t ring_capacity = kDefaultRingCapacity)
        : tracer(ring_capacity)
    {
    }

    Tracer tracer;
    MetricsRegistry metrics;
};

/**
 * Probe for flat bank @p bank of @p sink; the detached (all-no-op)
 * probe when @p sink is null.
 */
inline Probe
probeFor(Sink *sink, unsigned bank)
{
    if (!sink)
        return Probe{};
    return Probe{&sink->tracer, &sink->metrics,
                 static_cast<std::uint16_t>(bank)};
}

} // namespace obs
} // namespace graphene

#endif // OBS_OBS_HH
