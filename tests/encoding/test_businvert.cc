/**
 * @file
 * Unit tests for bus-invert coding and its zero-skipping variants.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "encoding/businvert.hh"
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

using Mode = BusInvertScheme::Mode;

} // namespace

TEST(BusInvert, InvertsWhenMajorityWouldFlip)
{
    // 8-bit segment, idle wires; value 0xFF would flip 8 wires plainly
    // but only 0 data wires inverted (send 0x00) plus 1 invert-line
    // flip.
    BusInvertScheme s(cfg(8, 8, 8), Mode::Plain);
    auto r = s.transfer(BitVec(8, 0xff));
    EXPECT_EQ(r.data_flips, 0u);
    EXPECT_EQ(r.control_flips, 1u);
}

TEST(BusInvert, PlainWhenMinorityFlips)
{
    BusInvertScheme s(cfg(8, 8, 8), Mode::Plain);
    auto r = s.transfer(BitVec(8, 0b00000011));
    EXPECT_EQ(r.data_flips, 2u);
    EXPECT_EQ(r.control_flips, 0u);
}

TEST(BusInvert, PerBeatFlipsBoundedByHalfSegmentPlusOne)
{
    // The classic bus-invert guarantee: at most S/2 + 1 transitions
    // per segment per beat (counting the invert line).
    Rng rng(4);
    const unsigned wires = 64, seg = 8;
    BusInvertScheme s(cfg(wires, seg, wires), Mode::Plain);
    for (int i = 0; i < 200; i++) {
        BitVec beat(wires);
        beat.randomize(rng);
        auto r = s.transfer(beat);
        EXPECT_LE(r.totalFlips(), (wires / seg) * (seg / 2 + 1));
    }
}

TEST(BusInvert, TotalFlipsNeverExceedPlainBinary)
{
    Rng rng(5);
    SchemeConfig c = cfg(64, 8);
    BusInvertScheme bic(c, Mode::Plain);
    // Reference plain-binary flips computed by hand with a shadow
    // wire state is awkward; instead verify against the invariant
    // that inverting is only chosen when strictly cheaper, so total
    // flips <= block bits / 2 + segments per block.
    for (int i = 0; i < 100; i++) {
        BitVec block(kBlockBits);
        block.randomize(rng);
        auto r = bic.transfer(block);
        unsigned beats = kBlockBits / 64;
        unsigned segs = 64 / 8;
        EXPECT_LE(r.totalFlips(), beats * segs * (8 / 2 + 1));
    }
}

TEST(BusInvert, ZeroSkipSparseSkipsZeroSegments)
{
    BusInvertScheme s(cfg(64, 8, 64), Mode::ZeroSkipSparse);
    // First set wires to a non-zero pattern.
    BitVec busy(64, 0x5a5a5a5a5a5a5a5aull);
    s.transfer(busy);
    // An all-zero beat: every segment skips; data wires hold; only
    // the 8 skip lines toggle.
    auto r = s.transfer(BitVec(64));
    EXPECT_EQ(r.data_flips, 0u);
    EXPECT_EQ(r.control_flips, 8u);
    EXPECT_EQ(r.skipped, 8u);
    // A second all-zero beat costs nothing at all.
    auto r2 = s.transfer(BitVec(64));
    EXPECT_EQ(r2.totalFlips(), 0u);
    EXPECT_EQ(r2.skipped, 8u);
}

TEST(BusInvert, ZeroSkipPrefersCheapestMode)
{
    // Zero beat from idle wires: skipping costs 1 control flip per
    // segment, but plain transmission costs 0 -- the encoder must not
    // skip blindly.
    BusInvertScheme s(cfg(8, 8, 8), Mode::ZeroSkipSparse);
    auto r = s.transfer(BitVec(8));
    EXPECT_EQ(r.totalFlips(), 0u);
}

TEST(BusInvert, EncodedModeBusChargesTransitions)
{
    BusInvertScheme s(cfg(64, 8, 64), Mode::ZeroSkipEncoded);
    BitVec busy(64, 0x5a5a5a5a5a5a5a5aull);
    s.transfer(busy);
    auto r = s.transfer(BitVec(64));
    // Segments all switch mode to Skip: the packed base-3 word
    // changes, costing control transitions, but data wires hold.
    EXPECT_EQ(r.data_flips, 0u);
    EXPECT_GT(r.control_flips, 0u);
}

TEST(BusInvert, ControlWireCounts)
{
    EXPECT_EQ(BusInvertScheme(cfg(64, 8), Mode::Plain).controlWires(), 8u);
    EXPECT_EQ(BusInvertScheme(cfg(64, 8), Mode::ZeroSkipSparse)
                  .controlWires(),
              16u);
    EXPECT_EQ(BusInvertScheme(cfg(64, 8), Mode::ZeroSkipEncoded)
                  .controlWires(),
              32u);
}

TEST(BusInvert, EncodedCostsExtraLatency)
{
    auto plain = BusInvertScheme(cfg(64, 8), Mode::Plain)
                     .transfer(BitVec(kBlockBits));
    auto enc = BusInvertScheme(cfg(64, 8), Mode::ZeroSkipEncoded)
                   .transfer(BitVec(kBlockBits));
    EXPECT_GT(enc.cycles, plain.cycles);
}

TEST(BusInvert, ResetClearsAllState)
{
    BusInvertScheme s(cfg(8, 8, 8), Mode::ZeroSkipSparse);
    s.transfer(BitVec(8, 0xff));
    s.reset();
    auto r = s.transfer(BitVec(8, 0xff));
    // Identical behavior to a fresh scheme: inverted send, 1 flip.
    EXPECT_EQ(r.data_flips, 0u);
    EXPECT_EQ(r.control_flips, 1u);
}

TEST(BusInvertDeath, RejectsIndivisibleSegments)
{
    EXPECT_DEATH(BusInvertScheme(cfg(64, 24), Mode::Plain),
                 "not divisible");
}

/**
 * The word pass against the scalar reference: every power-of-two
 * segment, every mode, 64- to 512-wire buses (192 and 512 wires run a
 * beat past the block's storage), and a block width that is not a
 * multiple of 64. Both schemes see the same stream, including a
 * reset() mid-stream, and must agree on every field of every block.
 */
TEST(BusInvertDifferential, WordPassMatchesScalarReference)
{
    const Mode modes[] = {Mode::Plain, Mode::ZeroSkipSparse,
                          Mode::ZeroSkipEncoded};
    const unsigned wires_set[] = {64, 128, 192, 256, 512};
    for (unsigned seg = 1; seg <= 64; seg *= 2) {
        for (Mode mode : modes) {
            for (unsigned wires : wires_set) {
                for (unsigned block_bits : {kBlockBits, 200u}) {
                    const SchemeConfig c = cfg(wires, seg, block_bits);
                    std::unique_ptr<BusInvertScheme> ref, word;
                    {
                        difftest::ReferenceEncoders on;
                        ref = std::make_unique<BusInvertScheme>(c, mode);
                    }
                    word = std::make_unique<BusInvertScheme>(c, mode);
                    ASSERT_FALSE(ref->usesWordPass());
                    ASSERT_TRUE(word->usesWordPass());
                    SCOPED_TRACE(::testing::Message()
                                 << "seg " << seg << " mode "
                                 << int(mode) << " wires " << wires
                                 << " block " << block_bits);
                    Rng rng(seg * 1009 + wires * 7 + unsigned(mode));
                    for (unsigned i = 0; i < 96; i++) {
                        if (i == 50) {
                            ref->reset();
                            word->reset();
                        }
                        const BitVec b = difftest::differentialBlock(
                            rng, i, block_bits, seg);
                        difftest::expectSameResult(word->transfer(b),
                                                  ref->transfer(b));
                        if (::testing::Test::HasFailure())
                            return;
                    }
                }
            }
        }
    }
}

TEST(BusInvertDifferential, WordPassNeedsWholeWordsOfSegments)
{
    EXPECT_TRUE(BusInvertScheme(cfg(64, 16), Mode::Plain).usesWordPass());
    // A bus narrower than a word, and a segment that is not a power
    // of two, stay on the scalar walk.
    EXPECT_FALSE(BusInvertScheme(cfg(32, 8), Mode::Plain).usesWordPass());
    EXPECT_FALSE(BusInvertScheme(cfg(48, 24, 96), Mode::ZeroSkipSparse)
                     .usesWordPass());
}
