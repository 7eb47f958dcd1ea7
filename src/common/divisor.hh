/**
 * @file
 * Strength-reduced 64-bit division by a runtime constant.
 *
 * The simulator's geometry (channels, banks, rows per bank, lines per
 * row) is almost always a power of two, yet it is only known at run
 * time, so the compiler emits a full 64-bit `div` for every `/` and
 * `%` by it — one per decoded field of every request. Divisor reduces
 * those to a shift and a mask when the divisor is a power of two and
 * falls back to the hardware division otherwise, so the results are
 * identical for every divisor.
 */

#ifndef COMMON_DIVISOR_HH
#define COMMON_DIVISOR_HH

#include <bit>
#include <cstdint>

namespace graphene {

/** A fixed nonzero divisor with precomputed power-of-two shortcuts. */
class Divisor
{
  public:
    explicit Divisor(std::uint64_t d)
        : _d(d), _pow2(std::has_single_bit(d)),
          _shift(static_cast<unsigned>(std::countr_zero(d)))
    {
    }

    std::uint64_t value() const { return _d; }

    /** @return x / value(). */
    std::uint64_t quot(std::uint64_t x) const
    {
        return _pow2 ? x >> _shift : x / _d;
    }

    /** @return x % value(). */
    std::uint64_t rem(std::uint64_t x) const
    {
        return _pow2 ? x & (_d - 1) : x % _d;
    }

  private:
    std::uint64_t _d;
    bool _pow2;
    unsigned _shift;
};

} // namespace graphene

#endif // COMMON_DIVISOR_HH
