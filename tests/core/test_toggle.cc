/**
 * @file
 * Unit tests for the toggle generator/detector/regenerator circuits
 * and their word-wide bank counterparts (DESIGN.md §15): a bank must
 * behave exactly like one scalar circuit per lane.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "core/toggle.hh"

using desc::Rng;
using namespace desc::core;

TEST(ToggleGenerator, AlternatesLevels)
{
    ToggleGenerator tg;
    EXPECT_FALSE(tg.level());
    tg.fire();
    EXPECT_TRUE(tg.level());
    tg.fire();
    EXPECT_FALSE(tg.level());
}

TEST(ToggleGenerator, ResetReturnsLow)
{
    ToggleGenerator tg;
    tg.fire();
    tg.reset();
    EXPECT_FALSE(tg.level());
}

TEST(ToggleDetector, DetectsEveryLevelChange)
{
    ToggleDetector td;
    EXPECT_FALSE(td.sample(false));
    EXPECT_TRUE(td.sample(true));
    EXPECT_FALSE(td.sample(true));
    EXPECT_TRUE(td.sample(false));
}

TEST(ToggleDetector, GeneratorDetectorPairRoundTrips)
{
    ToggleGenerator tg;
    ToggleDetector td;
    td.sample(tg.level());
    int detected = 0;
    for (int i = 0; i < 10; i++) {
        if (i % 3 == 0)
            tg.fire();
        if (td.sample(tg.level()))
            detected++;
    }
    EXPECT_EQ(detected, 4); // fires at i = 0, 3, 6, 9
}

TEST(ToggleGeneratorBank, MatchesScalarLanes)
{
    // 130 lanes spans three plane words including a partial tail.
    const unsigned lanes = 130;
    ToggleGeneratorBank bank(lanes);
    std::vector<ToggleGenerator> scalar(lanes);
    Rng rng(0x76b1);
    WirePlane mask(lanes);
    for (int round = 0; round < 200; round++) {
        mask.clear();
        for (unsigned i = 0; i < lanes; i++) {
            if (rng.chance(0.3)) {
                mask[i] = true;
                scalar[i].fire();
            }
        }
        bank.fire(mask);
        for (unsigned i = 0; i < lanes; i++)
            ASSERT_EQ(bank.level(i), scalar[i].level())
                << "lane " << i << " round " << round;
    }
    bank.reset();
    for (unsigned i = 0; i < lanes; i++)
        EXPECT_FALSE(bank.level(i));
}

TEST(ToggleDetectorBank, MatchesScalarLanes)
{
    const unsigned lanes = 130;
    ToggleDetectorBank bank(lanes);
    std::vector<ToggleDetector> scalar(lanes);
    Rng rng(0xde7ec);
    WirePlane levels(lanes);
    WirePlane toggles(lanes);
    for (int round = 0; round < 200; round++) {
        for (unsigned i = 0; i < lanes; i++) {
            if (rng.chance(0.4))
                levels[i] = !levels[i];
        }
        bank.sample(levels, toggles);
        for (unsigned i = 0; i < lanes; i++)
            ASSERT_EQ(bool(toggles[i]), scalar[i].sample(levels[i]))
                << "lane " << i << " round " << round;
    }
}

TEST(ToggleRegenerator, ForwardsSelectedBranchOnly)
{
    ToggleRegenerator tr;
    // Branch 0 selected; its toggle propagates.
    EXPECT_FALSE(tr.sample(false, false, false));
    EXPECT_TRUE(tr.sample(true, false, false));
    // Branch 1 toggling while branch 0 is selected: no output change.
    EXPECT_TRUE(tr.sample(true, true, false));
    EXPECT_TRUE(tr.sample(true, false, false));
}

TEST(ToggleRegenerator, RemembersPerBranchState)
{
    ToggleRegenerator tr;
    tr.sample(false, false, false);
    tr.sample(true, false, false);   // branch0 -> high, output toggles
    bool lvl = tr.level();
    // Switch selection to branch 1 (still low = its remembered state):
    // no spurious toggle.
    tr.sample(true, false, true);
    EXPECT_EQ(tr.level(), lvl);
    // Branch 1 toggles: output toggles.
    tr.sample(true, true, true);
    EXPECT_NE(tr.level(), lvl);
}
