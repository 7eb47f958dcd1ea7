#include "dram/timing.hh"

#include <cmath>

#include "common/logging.hh"

namespace graphene {
namespace dram {

TimingParams
TimingParams::ddr4_2400()
{
    return TimingParams{};
}

Cycle
TimingParams::toCycles(Nanoseconds ns) const
{
    return Cycle{
        static_cast<std::uint64_t>(std::ceil(ns / tCK - 1e-9))};
}

CycleTiming
TimingParams::inCycles() const
{
    return CycleTiming{toCycles(tREFI), toCycles(tRFC), toCycles(tRC),
                       toCycles(tRCD),  toCycles(tRP),  toCycles(tCL),
                       toCycles(tRAS),  toCycles(tBL),  toCycles(tFAW)};
}

ActCount
TimingParams::maxActsInWindow(unsigned k) const
{
    GRAPHENE_CHECK(k > 0, "reset-window divisor k must be >= 1");
    const Nanoseconds available = tREFW * (1.0 - tRFC / tREFI);
    return ActCount{static_cast<std::uint64_t>(
        available / tRC / static_cast<double>(k))};
}

} // namespace dram
} // namespace graphene
