/** @file Bit widths for the hardware table-cost models. */

#ifndef COMMON_BITS_HH
#define COMMON_BITS_HH

#include <algorithm>
#include <bit>
#include <cstdint>

namespace graphene {

/** Bits needed to represent values in [0, n]; at least 1. */
constexpr unsigned
bitsFor(std::uint64_t n)
{
    return std::max(1u, static_cast<unsigned>(std::bit_width(n)));
}

} // namespace graphene

#endif // COMMON_BITS_HH
