/**
 * @file
 * Cache-block SECDED codec with DESC's interleaved layout (Figure 9).
 *
 * A 512-bit block is partitioned into segments (four 128-bit segments
 * for the (137, 128) code, eight 64-bit segments for (72, 64)), each
 * protected independently. Segment membership is bit-interleaved:
 * global bit g belongs to segment (g mod S). Because DESC chunks are
 * contiguous runs of chunk_bits <= S bits, every chunk touches each
 * segment at most once — so a corrupted chunk (one bad H-tree toggle,
 * up to chunk_bits wrong bits) injects at most one error per segment
 * and stays correctable, and two corrupted chunks stay detectable.
 * Parity bits are appended to the block in the same interleaved order,
 * forming the parity chunks carried by the extra ECC wires.
 *
 * Because segment = g mod S and S divides 64, every segment owns the
 * same bit lanes of every 64-bit word. The codec therefore computes
 * all segments' parities at once: one block-wide mask per Hamming
 * parity bit selects the data bits that feed it, and XOR-folding the
 * masked words from 64 lanes down to S leaves segment s's parity in
 * lane s. That S-bit word is exactly the bus's parity chunk layout.
 */

#ifndef DESC_ECC_BLOCKCODEC_HH
#define DESC_ECC_BLOCKCODEC_HH

#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "ecc/hamming.hh"

namespace desc::ecc {

class BlockCodec
{
  public:
    /**
     * @param block_bits        payload block size (512); a multiple
     *                          of 64
     * @param segment_data_bits data bits per protected segment
     *                          (64 or 128 in the paper); the segment
     *                          count must be a power of two <= 64
     */
    BlockCodec(unsigned block_bits, unsigned segment_data_bits);

    unsigned blockBits() const { return _block_bits; }
    unsigned numSegments() const { return _num_segments; }

    /** Parity bits per segment (9 for (137,128), 8 for (72,64)). */
    unsigned parityBitsPerSegment() const { return _code.parityBits(); }

    /** Total parity bits appended to the block on the bus. */
    unsigned totalParityBits() const
    {
        return _num_segments * _code.parityBits();
    }

    /** Bits on the bus per protected block transfer. */
    unsigned busBits() const { return _block_bits + totalParityBits(); }

    /**
     * Encode a block into the bus word: the payload in its original
     * position followed by interleaved parity chunks.
     */
    BitVec encode(const BitVec &block) const;

    /**
     * encode() into a caller-owned bus word (resized on first use);
     * no allocations in steady state. This is the hierarchy's
     * per-transfer path.
     */
    void encodeInto(const BitVec &block, BitVec &bus) const;

    struct DecodeResult
    {
        BitVec block;
        unsigned corrected = 0;       //!< segments corrected
        unsigned detected_double = 0; //!< segments with detected 2-bit
        bool
        uncorrectable() const
        {
            return detected_double > 0;
        }
    };

    /** Decode a (possibly corrupted) bus word. */
    DecodeResult decode(const BitVec &bus) const;

  private:
    /** XOR lanes congruent mod S together; lane s ends up in bit s. */
    std::uint64_t fold(std::uint64_t x) const;

    /**
     * Parity bit @p p of every segment, one lane per segment: the
     * fold of the block's words under mask M_p. For p equal to the
     * Hamming parity count this is the parity of the data bits alone.
     */
    std::uint64_t maskedParity(const std::uint64_t *block,
                               unsigned p) const;

    SecdedCode _code; //!< first: validates segment_data_bits >= 1
    unsigned _block_bits;
    unsigned _num_segments;
    unsigned _block_words;    //!< block_bits / 64
    std::uint64_t _lane_mask; //!< low S bits set

    /**
     * One block-wide mask per Hamming parity bit p, _block_words
     * words each: bit g is set when data bit g / S of its segment
     * sits at a Hamming position with bit p set. A last all-ones
     * mask feeds the overall parity.
     */
    std::vector<std::uint64_t> _masks;
};

} // namespace desc::ecc

#endif // DESC_ECC_BLOCKCODEC_HH
