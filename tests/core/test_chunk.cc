/**
 * @file
 * Unit tests for chunking, wire assignment, and chunk statistics.
 */

#include <gtest/gtest.h>

#include <optional>

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
    ChunkStats stats(4, 4);
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
    ChunkStats stats(4, 4);
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
    ChunkStats stats(4, 1);
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

/**
 * The word pass against the scalar walk: every chunk width the pass
 * supports, a wire count that takes the whole block in one wave and
 * one whose waves are single words, over random, sparse, dense,
 * all-zero, all-one and striped blocks. Every fourth block is ragged
 * (its chunk count is not a multiple of the wire count) and takes the
 * scalar walk, so the word-pass object converts its wire history to
 * bytes and back mid-stream. One stream opens with a ragged block,
 * which leaves some wires without history; the other opens with a
 * whole block, whose first wave has no match candidates.
 */
TEST(ChunkStatsDifferential, WordPassMatchesScalarWalk)
{
    for (unsigned bits : {1u, 2u, 4u, 8u}) {
        for (unsigned wires : {kBlockBits / bits, 64 / bits}) {
            for (unsigned phase : {0u, 1u}) {
                std::optional<ChunkStats> ref;
                {
                    encoding::difftest::ReferenceEncoders on;
                    ref.emplace(bits, wires);
                }
                ChunkStats word(bits, wires);
                ASSERT_FALSE(ref->usesWordPass());
                ASSERT_TRUE(word.usesWordPass());
                SCOPED_TRACE(::testing::Message()
                             << "chunk " << bits << " wires " << wires
                             << " phase " << phase);
                Rng rng(bits * 131 + wires * 7 + phase);
                for (unsigned i = 0; i < 48; i++) {
                    const bool ragged = (i + phase) % 4 == 0;
                    const unsigned width =
                        ragged ? kBlockBits - 3 * bits : kBlockBits;
                    const BitVec b = encoding::difftest::differentialBlock(
                        rng, i, width, bits);
                    ref->observe(b);
                    word.observe(b);
                    SCOPED_TRACE(::testing::Message() << "block " << i);
                    expectSameStats(word, *ref);
                    if (::testing::Test::HasFailure())
                        return;
                }
            }
        }
    }
}
