/**
 * @file
 * Unit tests for the generic set-associative array.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/array.hh"

using namespace desc;
using namespace desc::cache;

namespace {

struct Meta
{
    int tagval = 0;
    bool pinned = false;
};

using Array = SetAssocArray<Meta>;

} // namespace

TEST(SetAssocArray, GeometryDerivation)
{
    Array a(16 * 1024, 4, 64);
    EXPECT_EQ(a.numSets(), 64u);
    EXPECT_EQ(a.assoc(), 4u);
}

TEST(SetAssocArray, LookupMissesOnEmpty)
{
    Array a(16 * 1024, 4, 64);
    EXPECT_EQ(a.lookup(0x1000), Array::kNoWay);
}

TEST(SetAssocArray, FillThenHit)
{
    Array a(16 * 1024, 4, 64);
    auto v = a.victim(0x1000);
    a.fill(v, 0x1000);
    auto way = a.lookup(0x1000);
    ASSERT_NE(way, Array::kNoWay);
    EXPECT_EQ(a.addrOf(way), 0x1000u);
    // Offsets within the block hit the same line.
    EXPECT_EQ(a.lookup(0x1008), way);
}

TEST(SetAssocArray, DistinctTagsSameSet)
{
    Array a(16 * 1024, 4, 64);
    // 64 sets * 64B = 4KB stride aliases to the same set.
    Addr a1 = 0x1000, a2 = 0x1000 + 4096;
    a.fill(a.victim(a1), a1);
    a.fill(a.victim(a2), a2);
    EXPECT_NE(a.lookup(a1), Array::kNoWay);
    EXPECT_NE(a.lookup(a2), Array::kNoWay);
    EXPECT_NE(a.lookup(a1), a.lookup(a2));
}

TEST(SetAssocArray, LruEviction)
{
    Array a(16 * 1024, 4, 64);
    // Fill all four ways of one set, touching in order.
    for (unsigned i = 0; i < 4; i++) {
        Addr addr = 0x1000 + Addr(i) * 4096;
        a.fill(a.victim(addr), addr);
    }
    // Touch way 0 so way 1 becomes LRU.
    a.touch(a.lookup(0x1000));
    Addr newcomer = 0x1000 + 4 * 4096;
    auto v = a.victim(newcomer);
    EXPECT_EQ(a.addrOf(v), 0x1000u + 4096u);
}

TEST(SetAssocArray, InvalidWayPreferredOverEviction)
{
    Array a(16 * 1024, 4, 64);
    a.fill(a.victim(0x1000), 0x1000);
    auto v = a.victim(0x1000 + 4096);
    EXPECT_FALSE(a.valid(v));
}

TEST(SetAssocArray, VictimPreferringAvoidsPinnedLines)
{
    Array a(16 * 1024, 4, 64);
    for (unsigned i = 0; i < 4; i++) {
        Addr addr = 0x1000 + Addr(i) * 4096;
        auto way = a.victim(addr);
        a.fill(way, addr);
        a.meta(way).pinned = i != 2; // only way 2 is unpinned
    }
    auto v = a.victimPreferring(
        0x1000 + 5 * 4096, [](const Meta &m) { return m.pinned; });
    EXPECT_EQ(a.addrOf(v), 0x1000u + 2 * 4096u);
}

TEST(SetAssocArray, VictimPreferringFallsBackToLru)
{
    Array a(16 * 1024, 4, 64);
    for (unsigned i = 0; i < 4; i++) {
        Addr addr = 0x1000 + Addr(i) * 4096;
        auto way = a.victim(addr);
        a.fill(way, addr);
        a.meta(way).pinned = true;
    }
    auto v = a.victimPreferring(0x1000,
                                [](const Meta &m) { return m.pinned; });
    // Everything pinned: plain LRU (way 0, the oldest fill).
    EXPECT_EQ(a.addrOf(v), 0x1000u);
}

TEST(SetAssocArray, InvalidateFreesTheLine)
{
    Array a(16 * 1024, 4, 64);
    a.fill(a.victim(0x2000), 0x2000);
    a.invalidate(a.lookup(0x2000));
    EXPECT_EQ(a.lookup(0x2000), Array::kNoWay);
}

TEST(SetAssocArray, SetSnapshotListsValidLinesInLruOrder)
{
    Array a(16 * 1024, 4, 64); // 64 sets: stride 4096 stays in set 0
    a.fill(a.victim(0x0), 0x0);
    a.fill(a.victim(0x1000), 0x1000);
    a.fill(a.victim(0x2000), 0x2000);
    a.fill(a.victim(0x40), 0x40); // set 1
    a.touch(a.lookup(0x0));
    EXPECT_EQ(a.setSnapshot(0),
              (std::vector<Addr>{0x1000, 0x2000, 0x0}));
    EXPECT_EQ(a.setSnapshot(1), (std::vector<Addr>{0x40}));
    a.invalidate(a.lookup(0x2000));
    EXPECT_EQ(a.setSnapshot(0), (std::vector<Addr>{0x1000, 0x0}));
    EXPECT_TRUE(a.setSnapshot(2).empty());
}

TEST(SetAssocArray, FreshArrayIsEmptyOnZeroPages)
{
    // A multi-megabyte array starts all-invalid with default
    // metadata, without anything writing its lines.
    Array a(64ull << 20, 16, 64);
    EXPECT_EQ(a.lookup(0x123440), Array::kNoWay);
    for (unsigned set : {0u, 4095u, a.numSets() - 1}) {
        EXPECT_TRUE(a.setSnapshot(set).empty());
        const Array::Way way = Array::Way(set) * a.assoc();
        EXPECT_EQ(a.meta(way).tagval, 0);
        EXPECT_FALSE(a.meta(way).pinned);
    }
}
