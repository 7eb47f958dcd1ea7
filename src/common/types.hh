/**
 * @file
 * Fundamental scalar types shared by every module in the Graphene
 * reproduction: cycles, nanoseconds, activation counts, and DRAM
 * row/bank/address identifiers.
 *
 * All of them are *strong* types: zero-overhead wrappers over the
 * underlying representation with explicit construction and only
 * same-type arithmetic/comparison, so a swapped (row, bank) argument
 * pair or a Cycle-into-Nanoseconds assignment is a compile error
 * instead of a silent bookkeeping bug. The soundness arguments of the
 * paper (and of BlockHammer/ABACuS-style trackers generally) depend
 * on never confusing these quantities; the type system now enforces
 * that, and graphene_analyze polices the sites types cannot
 * reach (see DESIGN.md "Static analysis & typed quantities").
 *
 * Two templates cover every need:
 *
 *  - StrongId<Tag, Rep>: an identifier (Row, BankId, Addr). Supports
 *    comparison with its own kind, neighbour arithmetic with a signed
 *    offset (row + 1 is the adjacent row), id - id distance, and an
 *    invalid() sentinel. No cross-kind operations.
 *  - Quantity<Tag, Rep>: a measured amount (Cycle, Nanoseconds,
 *    ActCount, RefWindow). Supports same-type addition/subtraction,
 *    scaling by a raw scalar, the dimensionless ratio and the modulus
 *    of two same-type quantities, and comparison with its own kind.
 *
 * Both are trivially copyable and exactly sizeof(Rep); the
 * static_asserts at the bottom of this header keep that true.
 */

#ifndef COMMON_TYPES_HH
#define COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <type_traits>

namespace graphene {

/**
 * A strongly typed identifier: a Rep-sized label with no implicit
 * conversions. @p Tag is an empty struct that makes each instantiation
 * a distinct type.
 */
template <class Tag, class Rep>
class StrongId
{
    static_assert(std::is_integral_v<Rep> && std::is_unsigned_v<Rep>,
                  "identifiers are unsigned integers");

  public:
    using rep = Rep;
    using difference_type = std::make_signed_t<Rep>;

    /** Zero-initialised (id 0), matching the old alias semantics. */
    constexpr StrongId() = default;

    constexpr explicit StrongId(Rep v) : _v(v) {}

    /** The raw representation, for boundaries (I/O, hashing, maths). */
    constexpr Rep value() const { return _v; }

    /** The all-ones sentinel meaning "no such id". */
    static constexpr StrongId invalid()
    {
        return StrongId(static_cast<Rep>(-1));
    }

    constexpr bool isValid() const { return _v != static_cast<Rep>(-1); }

    // Same-kind comparison only.
    friend constexpr bool operator==(StrongId a, StrongId b)
    {
        return a._v == b._v;
    }
    friend constexpr bool operator!=(StrongId a, StrongId b)
    {
        return a._v != b._v;
    }
    friend constexpr bool operator<(StrongId a, StrongId b)
    {
        return a._v < b._v;
    }
    friend constexpr bool operator<=(StrongId a, StrongId b)
    {
        return a._v <= b._v;
    }
    friend constexpr bool operator>(StrongId a, StrongId b)
    {
        return a._v > b._v;
    }
    friend constexpr bool operator>=(StrongId a, StrongId b)
    {
        return a._v >= b._v;
    }

    // Neighbour arithmetic: an id plus/minus a signed offset is a
    // nearby id (wrapping modulo the Rep range, like the raw alias
    // did); the difference of two ids is a signed distance. Offsets
    // are deliberately raw integers — "row + 1" is the neighbouring
    // row — but two ids of different kinds never mix.
    friend constexpr StrongId operator+(StrongId a, difference_type d)
    {
        return StrongId(static_cast<Rep>(a._v + static_cast<Rep>(d)));
    }
    friend constexpr StrongId operator-(StrongId a, difference_type d)
    {
        return StrongId(static_cast<Rep>(a._v - static_cast<Rep>(d)));
    }
    friend constexpr difference_type operator-(StrongId a, StrongId b)
    {
        return static_cast<difference_type>(a._v - b._v);
    }

    constexpr StrongId &operator++()
    {
        ++_v;
        return *this;
    }
    constexpr StrongId operator++(int)
    {
        StrongId old = *this;
        ++_v;
        return old;
    }

    friend std::ostream &operator<<(std::ostream &os, StrongId v)
    {
        // uint32_t streams as a number already; +_v also promotes a
        // hypothetical char-sized rep to an integer.
        return os << +v._v;
    }

  private:
    Rep _v{};
};

/**
 * A strongly typed measured amount. Same-type arithmetic only; the
 * ratio and modulus of two same-type quantities are the only
 * operations that leave the unit.
 */
template <class Tag, class Rep>
class Quantity
{
    static_assert(std::is_arithmetic_v<Rep>,
                  "quantities wrap arithmetic representations");

  public:
    using rep = Rep;

    /** Zero-initialised, matching the old alias semantics. */
    constexpr Quantity() = default;

    constexpr explicit Quantity(Rep v) : _v(v) {}

    /** The raw representation, for boundaries (I/O, stats, maths). */
    constexpr Rep value() const { return _v; }

    static constexpr Quantity zero() { return Quantity(Rep{}); }
    static constexpr Quantity max()
    {
        return Quantity(std::numeric_limits<Rep>::max());
    }

    // Same-unit arithmetic.
    friend constexpr Quantity operator+(Quantity a, Quantity b)
    {
        return Quantity(static_cast<Rep>(a._v + b._v));
    }
    friend constexpr Quantity operator-(Quantity a, Quantity b)
    {
        return Quantity(static_cast<Rep>(a._v - b._v));
    }
    constexpr Quantity &operator+=(Quantity o)
    {
        _v = static_cast<Rep>(_v + o._v);
        return *this;
    }
    constexpr Quantity &operator-=(Quantity o)
    {
        _v = static_cast<Rep>(_v - o._v);
        return *this;
    }
    constexpr Quantity &operator++()
    {
        ++_v;
        return *this;
    }
    constexpr Quantity operator++(int)
    {
        Quantity old = *this;
        ++_v;
        return old;
    }

    /** Dimensionless ratio of two same-unit quantities. */
    friend constexpr Rep operator/(Quantity a, Quantity b)
    {
        return static_cast<Rep>(a._v / b._v);
    }

    /** Remainder of two same-unit quantities (integral reps only). */
    friend constexpr Quantity operator%(Quantity a, Quantity b)
    {
        return Quantity(static_cast<Rep>(a._v % b._v));
    }

    // Scaling by a raw (unit-less) scalar.
    template <class S,
              class = std::enable_if_t<std::is_arithmetic_v<S>>>
    friend constexpr Quantity operator*(Quantity a, S s)
    {
        return Quantity(static_cast<Rep>(a._v * s));
    }
    template <class S,
              class = std::enable_if_t<std::is_arithmetic_v<S>>>
    friend constexpr Quantity operator*(S s, Quantity a)
    {
        return Quantity(static_cast<Rep>(s * a._v));
    }
    template <class S,
              class = std::enable_if_t<std::is_arithmetic_v<S>>>
    friend constexpr Quantity operator/(Quantity a, S s)
    {
        return Quantity(static_cast<Rep>(a._v / s));
    }

    // Same-unit comparison only.
    friend constexpr bool operator==(Quantity a, Quantity b)
    {
        return a._v == b._v;
    }
    friend constexpr bool operator!=(Quantity a, Quantity b)
    {
        return a._v != b._v;
    }
    friend constexpr bool operator<(Quantity a, Quantity b)
    {
        return a._v < b._v;
    }
    friend constexpr bool operator<=(Quantity a, Quantity b)
    {
        return a._v <= b._v;
    }
    friend constexpr bool operator>(Quantity a, Quantity b)
    {
        return a._v > b._v;
    }
    friend constexpr bool operator>=(Quantity a, Quantity b)
    {
        return a._v >= b._v;
    }

    friend std::ostream &operator<<(std::ostream &os, Quantity v)
    {
        return os << v._v;
    }

  private:
    Rep _v{};
};

namespace tags {
struct Cycle;
struct Nanoseconds;
struct ActCount;
struct RefWindow;
struct Row;
struct Bank;
struct Addr;
} // namespace tags

/** A count of DRAM command-clock cycles since simulation start. */
using Cycle = Quantity<tags::Cycle, std::uint64_t>;

/** Wall-clock time expressed in nanoseconds. */
using Nanoseconds = Quantity<tags::Nanoseconds, double>;

/** A number of row activations (counts, estimates, thresholds). */
using ActCount = Quantity<tags::ActCount, std::uint64_t>;

/** An ordinal number of tracker reset windows (tREFW / k units). */
using RefWindow = Quantity<tags::RefWindow, std::uint64_t>;

/** A DRAM row address within one bank. */
using Row = StrongId<tags::Row, std::uint32_t>;

/** A flat bank identifier (unique across channels and ranks). */
using BankId = StrongId<tags::Bank, std::uint32_t>;

/** A physical byte address as seen by the memory controller. */
using Addr = StrongId<tags::Addr, std::uint64_t>;

// The zero-overhead guarantee: a strong type is its representation,
// bit for bit, and moves like it.
static_assert(sizeof(Cycle) == sizeof(std::uint64_t));
static_assert(sizeof(Nanoseconds) == sizeof(double));
static_assert(sizeof(ActCount) == sizeof(std::uint64_t));
static_assert(sizeof(RefWindow) == sizeof(std::uint64_t));
static_assert(sizeof(Row) == sizeof(std::uint32_t));
static_assert(sizeof(BankId) == sizeof(std::uint32_t));
static_assert(sizeof(Addr) == sizeof(std::uint64_t));
static_assert(std::is_trivially_copyable_v<Cycle>);
static_assert(std::is_trivially_copyable_v<Nanoseconds>);
static_assert(std::is_trivially_copyable_v<ActCount>);
static_assert(std::is_trivially_copyable_v<RefWindow>);
static_assert(std::is_trivially_copyable_v<Row>);
static_assert(std::is_trivially_copyable_v<BankId>);
static_assert(std::is_trivially_copyable_v<Addr>);

} // namespace graphene

namespace std {

template <class Tag, class Rep>
struct hash<graphene::StrongId<Tag, Rep>>
{
    size_t operator()(graphene::StrongId<Tag, Rep> v) const noexcept
    {
        return hash<Rep>{}(v.value());
    }
};

template <class Tag, class Rep>
struct hash<graphene::Quantity<Tag, Rep>>
{
    size_t operator()(graphene::Quantity<Tag, Rep> v) const noexcept
    {
        return hash<Rep>{}(v.value());
    }
};

} // namespace std

#endif // COMMON_TYPES_HH
