/**
 * @file
 * Bit-manipulation helpers shared by the IR evaluator, the simulator VM,
 * and the netlist simulator. All signal payloads in this reproduction are
 * at most 64 bits wide and carried in uint64_t.
 */
#pragma once

#include <cstdint>

namespace assassyn {

/** Maximum signal width supported by this implementation. */
inline constexpr unsigned kMaxBits = 64;

/** Bit mask with the low @p bits bits set. @p bits must be in [0, 64]. */
inline constexpr uint64_t
maskBits(unsigned bits)
{
    return bits >= 64 ? ~uint64_t(0) : ((uint64_t(1) << bits) - 1);
}

/** Truncate @p value to its low @p bits bits. */
inline constexpr uint64_t
truncate(uint64_t value, unsigned bits)
{
    return value & maskBits(bits);
}

/** Sign-extend the low @p bits bits of @p value to 64 bits. */
inline constexpr int64_t
signExtend(uint64_t value, unsigned bits)
{
    if (bits == 0 || bits >= 64)
        return static_cast<int64_t>(value);
    uint64_t sign = uint64_t(1) << (bits - 1);
    uint64_t masked = truncate(value, bits);
    return static_cast<int64_t>((masked ^ sign) - sign);
}

/**
 * Shift pair turning `int64_t(x << sh) >> sh` into signExtend(x, bits):
 * the `x8` field of both engines' tape steps.
 */
inline constexpr uint8_t
sextShift(unsigned bits)
{
    return (bits == 0 || bits >= 64) ? 0 : uint8_t(64 - bits);
}

/** Extract bits [lo, hi] (inclusive, hi >= lo) of @p value. */
inline constexpr uint64_t
extractBits(uint64_t value, unsigned hi, unsigned lo)
{
    return truncate(value >> lo, hi - lo + 1);
}

/** Number of bits needed to represent @p value (at least 1). */
inline constexpr unsigned
bitsFor(uint64_t value)
{
    unsigned n = 1;
    while (value >>= 1)
        ++n;
    return n;
}

/** Ceil(log2(n)) with log2ceil(0) == log2ceil(1) == 0. */
inline constexpr unsigned
log2ceil(uint64_t n)
{
    unsigned bits = 0;
    uint64_t cap = 1;
    while (cap < n) {
        cap <<= 1;
        ++bits;
    }
    return bits;
}

} // namespace assassyn
