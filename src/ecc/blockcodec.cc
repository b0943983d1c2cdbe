#include "ecc/blockcodec.hh"

#include <algorithm>
#include <bit>

#include "common/contract.hh"
#include "common/log.hh"

namespace desc::ecc {

BlockCodec::BlockCodec(unsigned block_bits, unsigned segment_data_bits)
    : _code(segment_data_bits), _block_bits(block_bits),
      _num_segments(block_bits / segment_data_bits),
      _block_words(block_bits / 64),
      _lane_mask(_num_segments >= 64
                     ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << _num_segments) - 1)
{
    DESC_ASSERT(block_bits % segment_data_bits == 0,
                "block not divisible into segments");
    // The fold needs every segment to own the same lanes of every
    // block word: whole words, and a segment count dividing 64.
    DESC_ASSERT(block_bits % 64 == 0,
                "block of ", block_bits, " bits is not a multiple of 64");
    DESC_ASSERT(std::has_single_bit(_num_segments) && _num_segments <= 64,
                "segment count ", _num_segments,
                " must be a power of two <= 64");

    const unsigned S = _num_segments;
    const unsigned P = _code.hammingParityBits();
    _masks.assign(std::size_t(P) * _block_words, 0);
    _masks.resize(std::size_t(P + 1) * _block_words, ~std::uint64_t{0});
    for (unsigned k = 0; k < segment_data_bits; k++) {
        // Data bit k of every segment: bits [k*S, k*S + S), which
        // never straddle a word because S divides 64.
        const unsigned pos = _code.dataPosition(k);
        const unsigned g = k * S;
        for (unsigned p = 0; p < P; p++) {
            if ((pos >> p) & 1)
                _masks[p * _block_words + g / 64] |= _lane_mask << (g % 64);
        }
    }
}

std::uint64_t
BlockCodec::fold(std::uint64_t x) const
{
    for (unsigned shift = 32; shift >= _num_segments; shift >>= 1)
        x ^= x >> shift;
    return x & _lane_mask;
}

std::uint64_t
BlockCodec::maskedParity(const std::uint64_t *block, unsigned p) const
{
    const std::uint64_t *mask = &_masks[p * _block_words];
    std::uint64_t x = 0;
    for (unsigned w = 0; w < _block_words; w++)
        x ^= block[w] & mask[w];
    return fold(x);
}

BitVec
BlockCodec::encode(const BitVec &block) const
{
    BitVec bus;
    encodeInto(block, bus);
    return bus;
}

void
BlockCodec::encodeInto(const BitVec &block, BitVec &bus) const
{
    DESC_ASSERT(block.width() == _block_bits, "block width mismatch");
    if (bus.width() != busBits())
        bus = BitVec(busBits());

    // Payload bits stay in the block's own positions.
    auto &out = bus.mutableWords();
    const auto &in = block.words();
    std::copy(in.begin(), in.end(), out.begin());
    std::fill(out.begin() + in.size(), out.end(), 0);

    // Parity bit p of segment s lands at block_bits + p*S + s, so each
    // S-lane parity word is one aligned run of the bus and each parity
    // chunk also holds at most one bit per segment. The overall parity
    // covers the segment's data and its Hamming parity bits.
    auto deposit = [&](unsigned p, std::uint64_t lanes) {
        const unsigned at = _block_bits + p * _num_segments;
        out[at / 64] |= lanes << (at % 64);
    };
    const unsigned P = _code.hammingParityBits();
    std::uint64_t overall = maskedParity(in.data(), P);
    for (unsigned p = 0; p < P; p++) {
        const std::uint64_t lanes = maskedParity(in.data(), p);
        overall ^= lanes;
        deposit(p, lanes);
    }
    deposit(P, overall);
}

BlockCodec::DecodeResult
BlockCodec::decode(const BitVec &bus) const
{
    DESC_ASSERT(bus.width() == busBits(), "bus word width mismatch");
    const auto &in = bus.words();
    auto received = [&](unsigned p) {
        const unsigned at = _block_bits + p * _num_segments;
        return (in[at / 64] >> (at % 64)) & _lane_mask;
    };

    DecodeResult result;
    result.block = BitVec(_block_bits);
    std::copy(in.begin(), in.begin() + _block_words,
              result.block.mutableWords().begin());

    // Every segment's syndrome, lane-parallel: syndrome[p] lane s is
    // bit p of segment s's syndrome; `mismatch` lane s is set when
    // segment s fails its overall parity.
    const unsigned P = _code.hammingParityBits();
    std::uint64_t syndrome[32]; // P <= 32 for any unsigned width
    std::uint64_t mismatch = maskedParity(in.data(), P) ^ received(P);
    std::uint64_t dirty = 0;
    for (unsigned p = 0; p < P; p++) {
        const std::uint64_t parity = received(p);
        mismatch ^= parity;
        syndrome[p] = maskedParity(in.data(), p) ^ parity;
        dirty |= syndrome[p];
    }
    dirty |= mismatch;

    for (; dirty; dirty &= dirty - 1) {
        const unsigned s = unsigned(std::countr_zero(dirty));
        if (!((mismatch >> s) & 1)) {
            // Non-zero syndrome with matching overall parity.
            result.detected_double++;
            continue;
        }
        // Single error at Hamming position `pos` (0: the overall
        // parity bit itself). Errors in parity positions leave the
        // data intact.
        result.corrected++;
        unsigned pos = 0;
        for (unsigned p = 0; p < P; p++)
            pos |= unsigned((syndrome[p] >> s) & 1) << p;
        const unsigned k = _code.dataIndexAt(pos);
        if (k != ~0u)
            result.block.flipBit(k * _num_segments + s);
    }
    return result;
}

} // namespace desc::ecc
