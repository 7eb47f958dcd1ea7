#include "obs/trace.hh"

#include <algorithm>

#include "common/json.hh"

namespace graphene {
namespace obs {

std::uint64_t
Tracer::totalRetained() const
{
    std::uint64_t total = 0;
    for (const auto &ring : _rings)
        total += ring.size();
    return total;
}

std::uint64_t
Tracer::totalDropped() const
{
    std::uint64_t total = 0;
    for (const auto &ring : _rings)
        total += ring.dropped();
    return total;
}

std::size_t
Tracer::peakOccupancy() const
{
    std::size_t peak = 0;
    for (const auto &ring : _rings)
        peak = std::max(peak, ring.peakOccupancy());
    return peak;
}

std::vector<Event>
Tracer::merged() const
{
    std::vector<Event> all;
    all.reserve(totalRetained());
    for (const auto &ring : _rings)
        all.insert(all.end(), ring.events().begin(),
                   ring.events().end());
    // Stable sort on (cycle, bank): per-bank emission order is the
    // tie-break, so the merge is a pure function of the event stream.
    std::stable_sort(all.begin(), all.end(),
                     [](const Event &a, const Event &b) {
                         if (a.cycle != b.cycle)
                             return a.cycle < b.cycle;
                         return a.bank < b.bank;
                     });
    return all;
}

void
Tracer::writeEventsJsonl(std::ostream &os, Cycle window_cycles) const
{
    os << "{\"header\":true,\"format\":\"graphene-obs-events-v1\""
       << ",\"banks\":" << banks()
       << ",\"capacity\":" << _capacity
       << ",\"window_cycles\":" << window_cycles.value() << "}\n";

    for (const Event &e : merged()) {
        os << "{\"cycle\":" << e.cycle.value()
           << ",\"bank\":" << e.bank
           << ",\"kind\":" << json::quote(eventKindName(e.kind));
        if (e.row.isValid())
            os << ",\"row\":" << e.row.value();
        os << ",\"arg\":" << e.arg << "}\n";
    }

    std::vector<std::uint64_t> per_bank_dropped;
    per_bank_dropped.reserve(_rings.size());
    for (const auto &ring : _rings)
        per_bank_dropped.push_back(ring.dropped());
    os << "{\"footer\":true,\"events\":" << totalRetained()
       << ",\"dropped\":" << totalDropped()
       << ",\"peak_ring\":" << peakOccupancy()
       << ",\"per_bank_dropped\":" << json::array(per_bank_dropped)
       << "}\n";
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    for (unsigned b = 0; b < banks(); ++b) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0"
           << ",\"tid\":" << b << ",\"args\":{\"name\":"
           << json::quote("bank " + std::to_string(b)) << "}}";
    }
    for (const Event &e : merged()) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":" << json::quote(eventKindName(e.kind))
           << ",\"cat\":\"obs\",\"ph\":\"i\",\"s\":\"t\""
           << ",\"ts\":" << e.cycle.value()
           << ",\"pid\":0,\"tid\":" << e.bank
           << ",\"args\":{";
        if (e.row.isValid())
            os << "\"row\":" << e.row.value() << ",";
        os << "\"arg\":" << e.arg << "}}";
    }
    // Timestamps are DRAM command cycles, not microseconds; the
    // clock note keeps Perfetto screenshots honest.
    os << "\n],\"displayTimeUnit\":\"ns\""
       << ",\"otherData\":{\"clock\":\"dram-command-cycles\"}}\n";
}

} // namespace obs
} // namespace graphene
