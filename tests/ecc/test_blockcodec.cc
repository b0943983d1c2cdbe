/**
 * @file
 * Tests for the interleaved block codec of Figure 9: chunk-level
 * H-tree faults under DESC must stay correctable.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "ecc/blockcodec.hh"
#include "ecc/injector.hh"

using namespace desc;
using namespace desc::ecc;

TEST(BlockCodec, PaperGeometry)
{
    // (137,128): four 128-bit segments, nine parity bits each -> nine
    // extra 4-bit parity chunks on nine extra wires.
    BlockCodec c128(512, 128);
    EXPECT_EQ(c128.numSegments(), 4u);
    EXPECT_EQ(c128.parityBitsPerSegment(), 9u);
    EXPECT_EQ(c128.totalParityBits(), 36u);
    EXPECT_EQ(c128.busBits(), 548u);

    // (72,64): eight 64-bit segments, eight parity bits each.
    BlockCodec c64(512, 64);
    EXPECT_EQ(c64.numSegments(), 8u);
    EXPECT_EQ(c64.parityBitsPerSegment(), 8u);
    EXPECT_EQ(c64.busBits(), 576u);
}

TEST(BlockCodec, CleanRoundTrip)
{
    Rng rng(11);
    for (unsigned seg : {64u, 128u}) {
        BlockCodec codec(512, seg);
        for (int i = 0; i < 20; i++) {
            BitVec block(512);
            block.randomize(rng);
            auto d = codec.decode(codec.encode(block));
            EXPECT_EQ(d.block, block);
            EXPECT_EQ(d.corrected, 0u);
            EXPECT_EQ(d.detected_double, 0u);
        }
    }
}

TEST(BlockCodec, PayloadStaysInPlaceOnTheBus)
{
    Rng rng(12);
    BlockCodec codec(512, 128);
    BitVec block(512);
    block.randomize(rng);
    BitVec bus = codec.encode(block);
    for (unsigned i = 0; i < 512; i++)
        EXPECT_EQ(bus.bit(i), block.bit(i));
}

TEST(BlockCodec, ChunkTouchesEachSegmentAtMostOnce)
{
    // The structural guarantee behind Figure 9: with bit-interleaved
    // segments, a 4-bit chunk never holds two bits of one segment. So
    // any two flips inside one chunk, payload or parity, land in two
    // different segments and both get corrected.
    Rng rng(16);
    for (unsigned seg : {64u, 128u}) {
        BlockCodec codec(512, seg);
        BitVec block(512);
        block.randomize(rng);
        const BitVec bus = codec.encode(block);
        for (unsigned chunk = 0; chunk < codec.busBits() / 4; chunk++) {
            for (unsigned i = 0; i < 4; i++) {
                for (unsigned j = i + 1; j < 4; j++) {
                    BitVec bad = bus;
                    bad.flipBit(chunk * 4 + i);
                    bad.flipBit(chunk * 4 + j);
                    auto d = codec.decode(bad);
                    ASSERT_EQ(d.block, block)
                        << "segment size " << seg << " chunk " << chunk
                        << " bits " << i << "," << j;
                    ASSERT_EQ(d.corrected, 2u)
                        << "segment size " << seg << " chunk " << chunk
                        << " bits " << i << "," << j;
                    ASSERT_EQ(d.detected_double, 0u);
                }
            }
        }
    }
}

TEST(BlockCodec, SingleCorruptedChunkAlwaysRecovered)
{
    Rng rng(13);
    for (unsigned seg : {64u, 128u}) {
        BlockCodec codec(512, seg);
        for (int i = 0; i < 300; i++) {
            BitVec block(512);
            block.randomize(rng);
            BitVec bus = codec.encode(block);
            corruptRandomChunk(bus, 4, rng);
            auto d = codec.decode(bus);
            EXPECT_EQ(d.block, block) << "segment size " << seg;
            EXPECT_FALSE(d.uncorrectable());
        }
    }
}

TEST(BlockCodec, TwoCorruptedChunksNeverSilent)
{
    // Two chunk faults inject at most two errors per segment: either
    // corrected (if they land in different segments) or detected.
    Rng rng(14);
    BlockCodec codec(512, 128);
    for (int i = 0; i < 300; i++) {
        BitVec block(512);
        block.randomize(rng);
        BitVec bus = codec.encode(block);
        unsigned c1 = corruptRandomChunk(bus, 4, rng);
        unsigned c2;
        do {
            c2 = unsigned(rng.below(codec.busBits() / 4));
        } while (c2 == c1);
        corruptChunk(bus, c2, 4, rng);
        auto d = codec.decode(bus);
        bool silent = !d.uncorrectable() && d.block != block;
        EXPECT_FALSE(silent) << "iteration " << i;
    }
}

TEST(BlockCodec, ParityChunkFaultsAreHarmless)
{
    Rng rng(15);
    BlockCodec codec(512, 128);
    BitVec block(512);
    block.randomize(rng);
    BitVec bus = codec.encode(block);
    // Corrupt a chunk entirely inside the parity region.
    corruptChunk(bus, 512 / 4 + 2, 4, rng);
    auto d = codec.decode(bus);
    EXPECT_EQ(d.block, block);
    EXPECT_FALSE(d.uncorrectable());
}

namespace {

/**
 * Independent reference for the interleaved layout: gather segment s
 * (bits k*S + s), run the single-segment SECDED code on it, and place
 * its parity bit p at block_bits + p*S + s.
 */
BitVec
referenceEncode(const BitVec &block, unsigned seg_bits)
{
    const unsigned S = block.width() / seg_bits;
    SecdedCode code(seg_bits);
    BitVec bus(block.width() + S * code.parityBits());
    for (unsigned g = 0; g < block.width(); g++)
        bus.setBit(g, block.bit(g));
    for (unsigned s = 0; s < S; s++) {
        BitVec data(seg_bits);
        for (unsigned k = 0; k < seg_bits; k++)
            data.setBit(k, block.bit(k * S + s));
        BitVec word = code.encode(data);
        for (unsigned p = 0; p < code.parityBits(); p++)
            bus.setBit(block.width() + p * S + s, word.bit(seg_bits + p));
    }
    return bus;
}

/** Blocks covering edge cases, single bits, patterns, random, sparse. */
std::vector<BitVec>
oracleBlocks(Rng &rng)
{
    std::vector<BitVec> blocks;
    BitVec zero(512);
    blocks.push_back(zero);
    BitVec ones(512);
    ones.invertRange(0, 512);
    blocks.push_back(ones);
    for (unsigned g = 0; g < 512; g++) {
        BitVec b(512);
        b.setBit(g, true);
        blocks.push_back(b);
    }
    for (std::uint64_t first : {0x5555555555555555ull,
                                0xaaaaaaaaaaaaaaaaull}) {
        BitVec b(512);
        for (unsigned w = 0; w < 8; w++)
            b.setField(w * 64, 64, w % 2 ? ~first : first);
        blocks.push_back(b);
    }
    for (int i = 0; i < 1000; i++) {
        BitVec b(512);
        b.randomize(rng);
        blocks.push_back(b);
    }
    // Sparse: at most 25 of the 128 4-bit chunks non-zero, so at
    // least 80% of the chunks are zero.
    for (int i = 0; i < 1000; i++) {
        BitVec b(512);
        unsigned n = unsigned(rng.below(26));
        for (unsigned c = 0; c < n; c++)
            b.setField(unsigned(rng.below(128)) * 4, 4, rng.below(16));
        blocks.push_back(b);
    }
    return blocks;
}

} // namespace

TEST(BlockCodec, EncodeMatchesPerSegmentReference)
{
    Rng rng(17);
    auto blocks = oracleBlocks(rng);
    for (unsigned seg : {64u, 128u}) {
        BlockCodec codec(512, seg);
        BitVec bus;
        for (std::size_t i = 0; i < blocks.size(); i++) {
            codec.encodeInto(blocks[i], bus);
            ASSERT_EQ(bus, referenceEncode(blocks[i], seg))
                << "segment size " << seg << " block " << i;
            ASSERT_EQ(codec.encode(blocks[i]), bus);
        }
    }
}

TEST(BlockCodec, EveryBusBitFlipIsCorrected)
{
    Rng rng(18);
    for (unsigned seg : {64u, 128u}) {
        BlockCodec codec(512, seg);
        for (int i = 0; i < 4; i++) {
            BitVec block(512);
            block.randomize(rng);
            const BitVec bus = codec.encode(block);
            for (unsigned g = 0; g < codec.busBits(); g++) {
                BitVec bad = bus;
                bad.flipBit(g);
                auto d = codec.decode(bad);
                ASSERT_EQ(d.block, block)
                    << "segment size " << seg << " flip at " << g;
                ASSERT_EQ(d.corrected, 1u)
                    << "segment size " << seg << " flip at " << g;
                ASSERT_EQ(d.detected_double, 0u)
                    << "segment size " << seg << " flip at " << g;
            }
        }
    }
}

TEST(BlockCodec, DoubleErrorInOneSegmentIsDetected)
{
    Rng rng(19);
    for (unsigned seg : {64u, 128u}) {
        BlockCodec codec(512, seg);
        const unsigned S = codec.numSegments();
        BitVec block(512);
        block.randomize(rng);
        const BitVec bus = codec.encode(block);
        for (unsigned s = 0; s < S; s++) {
            // Data bits 0 and 1 of segment s.
            BitVec bad = bus;
            bad.flipBit(s);
            bad.flipBit(S + s);
            auto d = codec.decode(bad);
            EXPECT_EQ(d.detected_double, 1u)
                << "segment size " << seg << " segment " << s;
            EXPECT_EQ(d.corrected, 0u);
            EXPECT_TRUE(d.uncorrectable());
        }
    }
}

TEST(BlockCodecDeathTest, RejectsGeometryTheFoldCannotServe)
{
    // Three 64-bit segments: the segment count does not divide 64.
    EXPECT_DEATH(BlockCodec(192, 64), "power of two");
    // 96-bit block: not whole 64-bit words.
    EXPECT_DEATH(BlockCodec(96, 48), "multiple of 64");
}
