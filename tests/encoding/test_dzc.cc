/**
 * @file
 * Unit tests for dynamic zero compression.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "encoding/dzc.hh"
#include "differential.hh"

using namespace desc;
using namespace desc::encoding;

namespace {

SchemeConfig
cfg(unsigned wires, unsigned seg, unsigned block_bits = kBlockBits)
{
    SchemeConfig c;
    c.bus_wires = wires;
    c.segment_bits = seg;
    c.block_bits = block_bits;
    return c;
}

} // namespace

TEST(Dzc, ZeroSegmentsOnlyToggleIndicator)
{
    DynamicZeroScheme s(cfg(32, 8, 32));
    auto r = s.transfer(BitVec(32));
    EXPECT_EQ(r.data_flips, 0u);
    EXPECT_EQ(r.control_flips, 4u); // four indicators assert
    EXPECT_EQ(r.skipped, 4u);
}

TEST(Dzc, SteadyZeroStreamIsFree)
{
    DynamicZeroScheme s(cfg(32, 8, 32));
    s.transfer(BitVec(32));
    auto r = s.transfer(BitVec(32));
    EXPECT_EQ(r.totalFlips(), 0u);
}

TEST(Dzc, NonZeroSegmentsPayDataAndIndicator)
{
    DynamicZeroScheme s(cfg(8, 8, 8));
    auto r = s.transfer(BitVec(8, 0x0f));
    EXPECT_EQ(r.data_flips, 4u);
    EXPECT_EQ(r.control_flips, 0u); // indicator already deasserted
}

TEST(Dzc, IndicatorDeassertsWhenSegmentBecomesNonZero)
{
    DynamicZeroScheme s(cfg(8, 8, 8));
    s.transfer(BitVec(8));            // indicator asserts (1 flip)
    auto r = s.transfer(BitVec(8, 1));
    EXPECT_EQ(r.data_flips, 1u);
    EXPECT_EQ(r.control_flips, 1u);   // indicator deasserts
}

TEST(Dzc, DataWiresHoldThroughZeroRun)
{
    DynamicZeroScheme s(cfg(8, 8, 8));
    s.transfer(BitVec(8, 0xa5));
    s.transfer(BitVec(8));             // zero: wires hold 0xa5
    auto r = s.transfer(BitVec(8, 0xa5));
    // Returning to the held value costs only the indicator.
    EXPECT_EQ(r.data_flips, 0u);
    EXPECT_EQ(r.control_flips, 1u);
}

TEST(Dzc, MixedBlockCountsPerSegment)
{
    // 512-bit block over 64 wires, 8-bit segments: set exactly one
    // byte non-zero; 63 byte-beats stay zero.
    DynamicZeroScheme s(cfg(64, 8));
    BitVec block(kBlockBits);
    block.setField(0, 8, 0xff);
    auto r = s.transfer(block);
    EXPECT_EQ(r.data_flips, 8u);
    EXPECT_EQ(r.skipped, 63u);
}

TEST(Dzc, ExtraPipelineCycle)
{
    DynamicZeroScheme s(cfg(64, 8));
    EXPECT_EQ(s.transfer(BitVec(kBlockBits)).cycles, 8u + 1u);
}

TEST(Dzc, ControlWiresOnePerSegment)
{
    EXPECT_EQ(DynamicZeroScheme(cfg(64, 8)).controlWires(), 8u);
    EXPECT_EQ(DynamicZeroScheme(cfg(64, 16)).controlWires(), 4u);
}

TEST(Dzc, RandomStreamFlipsNeverExceedBinaryPlusIndicators)
{
    Rng rng(6);
    DynamicZeroScheme s(cfg(64, 8));
    for (int i = 0; i < 100; i++) {
        BitVec block(kBlockBits);
        block.randomize(rng);
        auto r = s.transfer(block);
        EXPECT_LE(r.totalFlips(), kBlockBits + 64 + 64);
    }
}

/**
 * The batched pass against the scalar reference over the same
 * geometries and block stream as the bus-invert differential test.
 */
TEST(DzcDifferential, BatchedPassMatchesScalarReference)
{
    using difftest::ForcedEncoderMode;
    const unsigned wires_set[] = {64, 128, 192, 256, 512};
    for (unsigned seg = 1; seg <= 64; seg *= 2) {
        for (unsigned wires : wires_set) {
            for (unsigned block_bits : {kBlockBits, 200u}) {
                const SchemeConfig c = cfg(wires, seg, block_bits);
                std::unique_ptr<DynamicZeroScheme> ref, batched;
                {
                    ForcedEncoderMode f(EncoderMode::Scalar);
                    ref = std::make_unique<DynamicZeroScheme>(c);
                }
                {
                    ForcedEncoderMode f(EncoderMode::Batched);
                    batched = std::make_unique<DynamicZeroScheme>(c);
                }
                ASSERT_FALSE(ref->usesBatchedPath());
                ASSERT_TRUE(batched->usesBatchedPath());
                SCOPED_TRACE(::testing::Message()
                             << "seg " << seg << " wires " << wires
                             << " block " << block_bits);
                Rng rng(seg * 1009 + wires * 7);
                for (unsigned i = 0; i < 96; i++) {
                    if (i == 50) {
                        ref->reset();
                        batched->reset();
                    }
                    const BitVec b = difftest::differentialBlock(
                        rng, i, block_bits, seg);
                    difftest::expectSameResult(batched->transfer(b),
                                              ref->transfer(b));
                    if (::testing::Test::HasFailure())
                        return;
                }
            }
        }
    }
}

TEST(DzcDifferential, BatchedPassNeedsWholeWordsOfSegments)
{
    difftest::ForcedEncoderMode f(EncoderMode::Batched);
    EXPECT_TRUE(DynamicZeroScheme(cfg(64, 16)).usesBatchedPath());
    EXPECT_FALSE(DynamicZeroScheme(cfg(32, 8)).usesBatchedPath());
    EXPECT_FALSE(DynamicZeroScheme(cfg(48, 24, 96)).usesBatchedPath());
}
