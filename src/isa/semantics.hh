/**
 * @file
 * The helpers isa/opcodes.def semantics expressions are written in,
 * for the code that expands those expressions (arch::execute and the
 * FastForward interpreter).
 */

#ifndef SPECSLICE_ISA_SEMANTICS_HH
#define SPECSLICE_ISA_SEMANTICS_HH

#include <bit>
#include <cstdint>

namespace specslice::isa
{

inline double
asDouble(std::uint64_t v)
{
    return std::bit_cast<double>(v);
}

inline std::uint64_t
asBits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Signed divide that never traps: x / 0 is 0, and INT64_MIN / -1
 *  wraps to INT64_MIN. */
inline std::uint64_t
divSigned(std::int64_t x, std::int64_t y)
{
    if (y == 0)
        return 0;
    if (y == -1)
        return 0 - static_cast<std::uint64_t>(x);
    return static_cast<std::uint64_t>(x / y);
}

/** Truncate toward zero. NaN, infinities and values outside the int64
 *  range give 0x8000000000000000, as x86's cvttsd2si does. */
inline std::uint64_t
doubleToInt(double d)
{
    if (!(d >= -0x1p63 && d < 0x1p63))
        return std::uint64_t{1} << 63;
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(d));
}

} // namespace specslice::isa

#endif // SPECSLICE_ISA_SEMANTICS_HH
