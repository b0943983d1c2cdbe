/**
 * @file
 * Unit tests for chunking, wire assignment, and chunk statistics.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.hh"
#include "core/chunk.hh"

#include "../encoding/differential.hh"

using namespace desc;
using namespace desc::core;

TEST(Chunk, SplitJoinRoundTrip)
{
    Rng rng(1);
    for (unsigned bits : {1u, 2u, 4u, 8u}) {
        BitVec block(kBlockBits);
        block.randomize(rng);
        auto chunks = splitChunks(block, bits);
        EXPECT_EQ(chunks.size(), kBlockBits / bits);
        EXPECT_EQ(joinChunks(chunks, bits, kBlockBits), block);
    }
}

TEST(Chunk, SplitExtractsCorrectValues)
{
    BitVec block(16, 0x4321);
    auto chunks = splitChunks(block, 4);
    ASSERT_EQ(chunks.size(), 4u);
    EXPECT_EQ(chunks[0], 0x1);
    EXPECT_EQ(chunks[1], 0x2);
    EXPECT_EQ(chunks[2], 0x3);
    EXPECT_EQ(chunks[3], 0x4);
}

TEST(Chunk, WireAssignmentMatchesFigure4)
{
    // 128 chunks on 64 wires: chunk 0 and chunk 64 share wire 0
    // (slots 0 and 1), chunk 1 and 65 share wire 1, etc.
    EXPECT_EQ(chunkWire(0, 64), 0u);
    EXPECT_EQ(chunkWire(64, 64), 0u);
    EXPECT_EQ(chunkSlot(0, 64), 0u);
    EXPECT_EQ(chunkSlot(64, 64), 1u);
    EXPECT_EQ(chunkWire(65, 64), 1u);
    EXPECT_EQ(chunkSlot(127, 64), 1u);
}

TEST(ChunkStats, ZeroFractionOfZeroBlockIsOne)
{
    ChunkStats stats(4, 128);
    stats.observe(BitVec(kBlockBits));
    EXPECT_DOUBLE_EQ(stats.zeroFraction(), 1.0);
    EXPECT_EQ(stats.totalChunks(), 128u);
}

TEST(ChunkStats, ValueFractions)
{
    ChunkStats stats(4, 4, 16);
    BitVec block(16);
    block.setField(0, 4, 5);
    block.setField(4, 4, 5);
    block.setField(8, 4, 7);
    stats.observe(block);
    EXPECT_DOUBLE_EQ(stats.valueFraction(5), 0.5);
    EXPECT_DOUBLE_EQ(stats.valueFraction(7), 0.25);
    EXPECT_DOUBLE_EQ(stats.zeroFraction(), 0.25);
}

TEST(ChunkStats, LastValueMatchesAcrossBlocksOnSameWire)
{
    ChunkStats stats(4, 4, 16);
    BitVec a(16, 0x1234);
    stats.observe(a);
    // First block has no predecessors: no candidates yet with one
    // chunk per wire.
    EXPECT_DOUBLE_EQ(stats.lastValueMatchFraction(), 0.0);
    stats.observe(a); // identical block: all four wires match
    EXPECT_DOUBLE_EQ(stats.lastValueMatchFraction(), 1.0);
    BitVec b(16, 0x1230); // chunk 0 differs (4 -> 0), rest match
    stats.observe(b);
    EXPECT_NEAR(stats.lastValueMatchFraction(), 7.0 / 8.0, 1e-12);
}

TEST(ChunkStats, IntraBlockMatchesCountedPerWire)
{
    // One wire, two chunks per block: consecutive chunks on the same
    // wire are candidates even within a block.
    ChunkStats stats(4, 1, 8);
    BitVec block(8, 0x55); // chunks 5, 5
    stats.observe(block);
    EXPECT_DOUBLE_EQ(stats.lastValueMatchFraction(), 1.0);
}

namespace {

/** Every histogram bin and both match counters agree. */
void
expectSameStats(const ChunkStats &got, const ChunkStats &ref)
{
    const Histogram &gh = got.histogram();
    const Histogram &rh = ref.histogram();
    ASSERT_EQ(gh.numBins(), rh.numBins());
    for (unsigned v = 0; v < rh.numBins(); v++)
        EXPECT_EQ(gh.bin(v), rh.bin(v)) << "bin " << v;
    EXPECT_EQ(gh.total(), rh.total());
    EXPECT_EQ(gh.overflow(), rh.overflow());
    EXPECT_EQ(got.matches(), ref.matches());
    EXPECT_EQ(got.matchCandidates(), ref.matchCandidates());
}

} // namespace

TEST(ChunkStats, FewerChunksThanWiresUseOneWirePerChunk)
{
    // 64 eight-bit chunks on 128 wires: wires 64..127 stay idle, and
    // each block's chunks meet the previous block's on wires 0..63.
    ChunkStats stats(8, 128);
    BitVec block(kBlockBits);
    block.setField(0, 8, 0xab);
    stats.observe(block);
    EXPECT_EQ(stats.matchCandidates(), 0u);
    stats.observe(block);
    EXPECT_EQ(stats.matchCandidates(), 64u);
    EXPECT_EQ(stats.matches(), 64u);
    EXPECT_EQ(stats.totalChunks(), 128u);
}

TEST(ChunkStats, GeometryIsFixedAtConstruction)
{
    EXPECT_TRUE(ChunkStats::fits(4, 128));
    EXPECT_TRUE(ChunkStats::fits(8, 128));
    EXPECT_TRUE(ChunkStats::fits(4, 1, 8));
    EXPECT_FALSE(ChunkStats::fits(3, 128));
    EXPECT_FALSE(ChunkStats::fits(4, 48));
    EXPECT_FALSE(ChunkStats::fits(4, 0));
    EXPECT_DEATH(ChunkStats(4, 48), "whole waves");
    ChunkStats stats(4, 128);
    EXPECT_DEATH(stats.observe(BitVec(kBlockBits - 4)), "built for");
    EXPECT_DEATH(stats.restore(Histogram(2), 0, 0), "histogram");
}

/**
 * The word pass against the scalar walk: every chunk width the pass
 * supports, on wire counts that take the whole block in one wave,
 * whose waves are whole words, and whose waves are not (gathered
 * into scratch words: 32 one-bit wires, 24-bit waves), over random,
 * sparse, dense, all-zero, all-one and striped blocks. The first
 * block's first wave has no match candidates.
 */
TEST(ChunkStatsDifferential, WordPassMatchesScalarWalk)
{
    struct Geometry
    {
        unsigned bits, wires, block_bits;
    };
    std::vector<Geometry> geometries;
    for (unsigned bits : {1u, 2u, 4u, 8u}) {
        for (unsigned wires : {kBlockBits / bits, 64 / bits, 32 / bits,
                               128u})
            geometries.push_back({bits, wires, kBlockBits});
    }
    geometries.push_back({1, 24, 480});
    geometries.push_back({2, 12, 480});
    geometries.push_back({4, 137, 548});
    for (const Geometry &g : geometries) {
        std::optional<ChunkStats> ref;
        {
            encoding::difftest::ReferenceEncoders on;
            ref.emplace(g.bits, g.wires, g.block_bits);
        }
        ChunkStats word(g.bits, g.wires, g.block_bits);
        ASSERT_FALSE(ref->usesWordPass());
        ASSERT_TRUE(word.usesWordPass());
        SCOPED_TRACE(::testing::Message()
                     << "chunk " << g.bits << " wires " << g.wires
                     << " block " << g.block_bits);
        Rng rng(g.bits * 131 + g.wires * 7 + g.block_bits);
        for (unsigned i = 0; i < 48; i++) {
            const BitVec b = encoding::difftest::differentialBlock(
                rng, i, g.block_bits, g.bits);
            ref->observe(b);
            word.observe(b);
            SCOPED_TRACE(::testing::Message() << "block " << i);
            expectSameStats(word, *ref);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}
