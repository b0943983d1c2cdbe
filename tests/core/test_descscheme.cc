/**
 * @file
 * Unit tests for the behavioral DESC scheme formulas.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/chunk.hh"
#include "core/descscheme.hh"
#include "core/factory.hh"

using namespace desc;
using namespace desc::core;
using desc::encoding::SchemeConfig;
using desc::encoding::SchemeKind;

namespace {

DescConfig
makeCfg(unsigned wires, unsigned chunk_bits, SkipMode skip,
        unsigned block_bits = kBlockBits)
{
    DescConfig c;
    c.bus_wires = wires;
    c.chunk_bits = chunk_bits;
    c.block_bits = block_bits;
    c.skip = skip;
    return c;
}

} // namespace

TEST(DescConfig, DerivedQuantities)
{
    auto c = makeCfg(128, 4, SkipMode::Zero);
    EXPECT_EQ(c.numChunks(), 128u);
    EXPECT_EQ(c.activeWires(), 128u);
    EXPECT_EQ(c.numWaves(), 1u);
    EXPECT_EQ(c.maxValue(), 15u);

    auto half = makeCfg(64, 4, SkipMode::Zero);
    EXPECT_EQ(half.activeWires(), 64u);
    EXPECT_EQ(half.numWaves(), 2u);

    // More wires than chunks: only one wire per chunk is used.
    auto wide = makeCfg(512, 4, SkipMode::Zero);
    EXPECT_EQ(wide.activeWires(), 128u);
    EXPECT_EQ(wide.numWaves(), 1u);
}

TEST(DescScheme, BasicModeFlipCountIsDataIndependent)
{
    // The paper's core claim: transition count is independent of the
    // data pattern in basic DESC.
    DescScheme s(makeCfg(128, 4, SkipMode::None));
    Rng rng(31);
    for (int i = 0; i < 30; i++) {
        BitVec block(kBlockBits);
        block.randomize(rng);
        EXPECT_EQ(s.transfer(block).data_flips, 128u);
    }
}

TEST(DescScheme, BasicWindowTracksMaxChunkValue)
{
    DescScheme s(makeCfg(128, 4, SkipMode::None));
    BitVec block(kBlockBits);
    block.setField(0, 4, 9); // one chunk of value 9, rest zero
    auto r = s.transfer(block);
    EXPECT_EQ(r.cycles, 1u + 10u);
}

TEST(DescScheme, ZeroSkipWindowShrinksWithSkipping)
{
    // Figure 10: same values, zero-skipped window is narrower.
    auto basic = DescScheme(makeCfg(128, 4, SkipMode::None));
    auto zs = DescScheme(makeCfg(128, 4, SkipMode::Zero));
    BitVec block(kBlockBits);
    block.setField(0, 4, 5);
    EXPECT_EQ(basic.transfer(block).cycles, 1u + 6u);
    EXPECT_EQ(zs.transfer(block).cycles, 1u + 5u);
}

TEST(DescScheme, ZeroSkipSavesFlipsOnZeroHeavyData)
{
    DescScheme s(makeCfg(128, 4, SkipMode::Zero));
    BitVec block(kBlockBits);
    for (unsigned i = 0; i < 16; i++)
        block.setField(i * 4, 4, 0xf);
    auto r = s.transfer(block);
    EXPECT_EQ(r.data_flips, 16u);
    EXPECT_EQ(r.skipped, 112u);
}

TEST(DescScheme, LastValueSkipUsesPerWireHistory)
{
    DescScheme s(makeCfg(128, 4, SkipMode::LastValue));
    Rng rng(33);
    BitVec a(kBlockBits);
    a.randomize(rng);
    auto first = s.transfer(a);
    // Initial last values are zero, so zero chunks of the first block
    // are skipped.
    EXPECT_GE(first.data_flips, 1u);
    auto again = s.transfer(a);
    EXPECT_EQ(again.data_flips, 0u);
    EXPECT_EQ(again.skipped, 128u);
}

TEST(DescScheme, MultiWaveCyclesAccumulate)
{
    // 64 wires, two waves; distinct max values per wave.
    DescScheme s(makeCfg(64, 4, SkipMode::Zero));
    BitVec block(kBlockBits);
    block.setField(0, 4, 7);        // wave 0 (chunk 0)
    block.setField(64 * 4, 4, 3);   // wave 1 (chunk 64)
    auto r = s.transfer(block);
    // open + wave0 window(7) + wave1 window(3)
    EXPECT_EQ(r.cycles, 1u + 7u + 3u);
    // reset flips: open + merged + final close (both waves skip)
    EXPECT_EQ(r.control_flips - r.cycles, 3u);
}

TEST(DescScheme, ControlWiresAreResetAndSync)
{
    DescScheme s(makeCfg(128, 4, SkipMode::Zero));
    EXPECT_EQ(s.controlWires(), 2u);
    EXPECT_EQ(s.dataWires(), 128u);
}

TEST(DescScheme, ResetClearsLastValueHistory)
{
    DescScheme s(makeCfg(128, 4, SkipMode::LastValue));
    Rng rng(34);
    BitVec a(kBlockBits);
    a.randomize(rng);
    s.transfer(a);
    s.reset();
    auto r = s.transfer(a);
    // History cleared: skips only where chunks are zero.
    auto chunks = splitChunks(a, 4);
    std::uint64_t zeros = 0;
    for (auto c : chunks)
        zeros += c == 0;
    EXPECT_EQ(r.skipped, zeros);
}

TEST(DescScheme, FactoryBuildsEveryKind)
{
    SchemeConfig cfg;
    cfg.bus_wires = 64;
    cfg.segment_bits = 8;
    cfg.chunk_bits = 4;
    for (unsigned i = 0; i < encoding::kNumSchemes; i++) {
        auto kind = allSchemeKinds()[i];
        auto scheme = makeScheme(kind, cfg);
        ASSERT_NE(scheme, nullptr);
        EXPECT_STREQ(scheme->name(), encoding::schemeName(kind));
        auto r = scheme->transfer(BitVec(kBlockBits));
        EXPECT_GT(r.cycles, 0u);
    }
}

TEST(DescScheme, OneBitChunksWork)
{
    // Figure 26 sweeps chunk sizes down to one bit.
    DescScheme s(makeCfg(512, 1, SkipMode::Zero));
    Rng rng(35);
    BitVec block(kBlockBits);
    block.randomize(rng);
    auto r = s.transfer(block);
    EXPECT_EQ(r.data_flips, block.popcount());
    EXPECT_EQ(r.skipped, 512u - block.popcount());
}

TEST(DescScheme, RejectsChunksTheWordPassCannotPack)
{
    // 3-bit chunks do not tile a 64-bit word; the ticked DescLink
    // (VCD export, examples/waveforms) is the model for them.
    EXPECT_DEATH(DescScheme{makeCfg(4, 3, SkipMode::Zero, 12)},
                 "1, 2, 4 or 8-bit chunks");
}
