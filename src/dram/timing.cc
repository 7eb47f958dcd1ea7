#include "dram/timing.hh"

#include <cmath>

#include "ckpt/io.hh"
#include "common/logging.hh"

namespace graphene {
namespace dram {

TimingParams
TimingParams::ddr4_2400()
{
    return TimingParams{};
}

void
TimingParams::save(ckpt::Writer &w) const
{
    for (const Nanoseconds ns : {tCK, tREFI, tRFC, tRC, tRCD, tRP, tCL,
                                 tRAS, tBL, tREFW, tFAW})
        w.f64(ns.value());
}

TimingParams
TimingParams::load(ckpt::Reader &r)
{
    TimingParams t;
    for (Nanoseconds *ns : {&t.tCK, &t.tREFI, &t.tRFC, &t.tRC, &t.tRCD,
                            &t.tRP, &t.tCL, &t.tRAS, &t.tBL, &t.tREFW,
                            &t.tFAW})
        *ns = Nanoseconds{r.f64()};
    return t;
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
