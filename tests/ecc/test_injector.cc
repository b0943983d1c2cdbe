/**
 * @file
 * Tests for the H-tree fault injector.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ecc/injector.hh"

using namespace desc;
using namespace desc::ecc;

TEST(Injector, FlipRandomBitFlipsExactlyOne)
{
    Rng rng(21);
    BitVec bus(548);
    bus.randomize(rng);
    BitVec before = bus;
    unsigned pos = flipRandomBit(bus, rng);
    EXPECT_EQ(bus.hammingDistance(before), 1u);
    EXPECT_NE(bus.bit(pos), before.bit(pos));
}

TEST(Injector, CorruptChunkChangesOnlyThatChunk)
{
    Rng rng(22);
    BitVec bus(512);
    bus.randomize(rng);
    BitVec before = bus;
    unsigned changed = corruptChunk(bus, 10, 4, rng);
    EXPECT_GE(changed, 1u);
    EXPECT_LE(changed, 4u);
    EXPECT_EQ(bus.hammingDistance(before), changed);
    // All differences inside chunk 10's bit range.
    for (unsigned b = 0; b < 512; b++) {
        if (bus.bit(b) != before.bit(b)) {
            EXPECT_GE(b, 40u);
            EXPECT_LT(b, 44u);
        }
    }
}

TEST(Injector, CorruptChunkNeverLeavesValueUnchanged)
{
    Rng rng(23);
    BitVec bus(64);
    for (int i = 0; i < 200; i++) {
        unsigned chunk = unsigned(rng.below(16));
        std::uint64_t before = bus.field(chunk * 4, 4);
        corruptChunk(bus, chunk, 4, rng);
        EXPECT_NE(bus.field(chunk * 4, 4), before);
    }
}

TEST(Injector, RandomChunkCoversTheWholeBus)
{
    Rng rng(24);
    BitVec bus(64);
    bool seen[16] = {};
    for (int i = 0; i < 500; i++)
        seen[corruptRandomChunk(bus, 4, rng)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(InjectorDeathTest, ChunkWidthMustFitTheDrawRange)
{
    Rng rng(25);
    BitVec bus(128);
    EXPECT_DEATH(corruptChunk(bus, 0, 64, rng), "outside \\[1, 63\\]");
    EXPECT_DEATH(corruptChunk(bus, 0, 0, rng), "outside \\[1, 63\\]");
}
