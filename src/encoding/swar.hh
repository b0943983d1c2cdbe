/**
 * @file
 * SWAR (SIMD-within-a-register) helpers over packed fixed-width
 * chunks, shared by the batched encoder paths. A 64-bit word holds
 * 64/B chunks of B bits each, B a power of two (the DESC chunk passes
 * use 1..8, the segment passes up to 64); the chunk width is a
 * template parameter so every mask folds to a compile-time constant
 * and each helper compiles to a handful of straight-line shifts. The
 * scalar reference paths remain the semantic definition; the
 * equivalence suite pins these helpers against them chunk by chunk.
 */

#ifndef DESC_ENCODING_SWAR_HH
#define DESC_ENCODING_SWAR_HH

#include <bit>
#include <cstdint>

namespace desc::encoding::swar {

/** True if the batched word paths support this chunk width. */
constexpr bool
supportedChunk(unsigned b)
{
    return b == 1 || b == 2 || b == 4 || b == 8;
}

/** Word with the least-significant bit of every w-bit lane set. */
constexpr std::uint64_t
laneLsbMask(unsigned w)
{
    std::uint64_t m = 0;
    for (unsigned pos = 0; pos < 64; pos += w)
        m |= std::uint64_t{1} << pos;
    return m;
}

/** Word with the low @p low bits of every w-bit lane set. */
constexpr std::uint64_t
laneLowMask(unsigned w, unsigned low)
{
    return laneLsbMask(w) * ((std::uint64_t{1} << low) - 1);
}

/**
 * Collapse every B-bit chunk to its least-significant bit: the result
 * has chunk i's LSB set iff chunk i of @p x is non-zero (all other
 * bits are garbage until masked). Shifting by less than B never moves
 * a bit below its own chunk's LSB, so neighbors cannot contaminate
 * the collapsed bit.
 */
template <unsigned B>
constexpr std::uint64_t
foldNonzero(std::uint64_t x)
{
    for (unsigned s = B / 2; s >= 1; s /= 2)
        x |= x >> s;
    return x;
}

/**
 * One marker bit (at the chunk's LSB position) per non-zero chunk;
 * iterate with countr_zero / B to visit each such chunk.
 */
template <unsigned B>
inline std::uint64_t
nonzeroChunkMarkers(std::uint64_t x)
{
    constexpr std::uint64_t lsb = laneLsbMask(B);
    return foldNonzero<B>(x) & lsb;
}

/**
 * Per-lane population count over B-bit lanes, B a power of two in
 * 1..64: every lane of the result holds the number of set bits in the
 * same lane of @p x. Each step adds the two half-lane counts after
 * masking, so a sum (at most B in a B-bit lane) never carries into
 * the next lane.
 */
template <unsigned B>
constexpr std::uint64_t
lanePopcount(std::uint64_t x)
{
    if constexpr (B == 1) {
        return x;
    } else if constexpr (B == 64) {
        return std::uint64_t(std::popcount(x));
    } else {
        constexpr std::uint64_t half = laneLowMask(B, B / 2);
        x = lanePopcount<B / 2>(x);
        return (x & half) + ((x >> (B / 2)) & half);
    }
}

/**
 * Population count of a whole word in straight-line code: byte
 * counts, then one multiply sums the bytes into the top byte. The
 * build targets baseline x86-64, where std::popcount is a call into
 * the runtime library; the segment passes count several words per
 * bus word, so they use this instead.
 */
constexpr unsigned
wordPopcount(std::uint64_t x)
{
    return unsigned((lanePopcount<8>(x) * laneLsbMask(8)) >> 56);
}

/**
 * Number of set bits in a marker word over B-bit lanes (only each
 * lane's LSB may be set). From 8-bit lanes up, one multiply sums
 * every lane into the top lane, which is wide enough for the count.
 */
template <unsigned B>
constexpr unsigned
markerCount(std::uint64_t m)
{
    if constexpr (B >= 8) {
        constexpr std::uint64_t lsb = laneLsbMask(B);
        return unsigned((m * lsb) >> (64 - B));
    } else {
        return wordPopcount(m);
    }
}

/** Number of non-zero B-bit chunks in @p x. */
template <unsigned B>
inline unsigned
nonzeroChunks(std::uint64_t x)
{
    return unsigned(std::popcount(nonzeroChunkMarkers<B>(x)));
}

/**
 * Per-lane maximum of @p a and @p b over W-bit lanes. Requires every
 * lane value < 2^(W-1) so the borrow trick has a spare bit.
 */
template <unsigned W>
inline std::uint64_t
laneMax(std::uint64_t a, std::uint64_t b)
{
    constexpr std::uint64_t hibit = laneLsbMask(W) << (W - 1);
    constexpr std::uint64_t lane_ones =
        W == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << W) - 1;
    // Per lane: hibit survives the subtraction iff a >= b. One flag
    // bit per lane times the all-ones lane value stays confined to
    // its lane: a full select mask where a >= b.
    const std::uint64_t ge = ((a | hibit) - b) & hibit;
    const std::uint64_t sel = (ge >> (W - 1)) * lane_ones;
    return b ^ ((a ^ b) & sel);
}

/**
 * Fold W-bit lanes (each value < 2^(W-1)) pairwise until one 64-bit
 * lane holds the maximum.
 */
template <unsigned W>
inline std::uint64_t
foldMaxLanes(std::uint64_t m)
{
    if constexpr (W >= 64) {
        return m;
    } else {
        constexpr std::uint64_t lo = laneLowMask(2 * W, W);
        return foldMaxLanes<2 * W>(laneMax<2 * W>(m & lo, (m >> W) & lo));
    }
}

/** Maximum chunk value across all B-bit chunks of @p x. */
template <unsigned B>
inline std::uint64_t
maxChunk(std::uint64_t x)
{
    if constexpr (B == 1) {
        return x != 0 ? 1 : 0;
    } else {
        // Widen to 2B-bit lanes (values < 2^B keep the spare bit the
        // compare trick needs), then fold lanes pairwise down to one.
        constexpr std::uint64_t half = laneLowMask(2 * B, B);
        return foldMaxLanes<2 * B>(laneMax<2 * B>(x & half, (x >> B) & half));
    }
}

/**
 * Per-chunk "v < s" over B-bit chunks: the result has chunk i's LSB
 * set iff chunk i of @p v is strictly less than chunk i of @p s (all
 * other bits zero). Compares each half of the chunks in widened
 * 2B-bit lanes so the borrow trick has its spare bit.
 */
template <unsigned B>
inline std::uint64_t
lessPerChunk(std::uint64_t v, std::uint64_t s)
{
    if constexpr (B == 1) {
        return ~v & s;
    } else {
        constexpr unsigned w = 2 * B;
        constexpr std::uint64_t half = laneLowMask(w, B);
        constexpr std::uint64_t hb = laneLsbMask(w) << (w - 1);
        const auto lt = [](std::uint64_t a, std::uint64_t c) {
            // hb survives the subtraction iff a >= c; invert for <.
            return ((((a | hb) - c) & hb) ^ hb) >> (w - 1);
        };
        const std::uint64_t lo = lt(v & half, s & half);
        const std::uint64_t hi = lt((v >> B) & half, (s >> B) & half);
        return lo | (hi << B);
    }
}

} // namespace desc::encoding::swar

#endif // DESC_ENCODING_SWAR_HH
