/**
 * @file
 * Unit tests for the SWAR counting helpers the segment passes use,
 * against std::popcount lane by lane.
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.hh"
#include "encoding/swar.hh"

using namespace desc;
using namespace desc::encoding;

namespace {

/** Random words plus the edge patterns every lane count must hit. */
std::vector<std::uint64_t>
testWords()
{
    std::vector<std::uint64_t> words = {0, ~std::uint64_t{0},
                                        0x5555555555555555ULL,
                                        0x8000000000000001ULL};
    Rng rng(0x5a5a);
    for (int i = 0; i < 500; i++) {
        words.push_back(rng.next());
        words.push_back(rng.next() & rng.next() & rng.next());
    }
    return words;
}

template <unsigned B>
void
expectLaneCounts()
{
    const std::uint64_t lane = B == 64 ? ~std::uint64_t{0}
                                       : (std::uint64_t{1} << B) - 1;
    for (std::uint64_t x : testWords()) {
        const std::uint64_t got = swar::lanePopcount<B>(x);
        for (unsigned pos = 0; pos < 64; pos += B) {
            EXPECT_EQ((got >> pos) & lane,
                      unsigned(std::popcount((x >> pos) & lane)))
                << "B " << B << " lane at " << pos;
        }
        const std::uint64_t markers = x & swar::laneLsbMask(B);
        EXPECT_EQ(swar::markerCount<B>(markers),
                  unsigned(std::popcount(markers)))
            << "B " << B;
    }
}

} // namespace

TEST(Swar, LanePopcountAndMarkerCountMatchStdPopcount)
{
    expectLaneCounts<1>();
    expectLaneCounts<2>();
    expectLaneCounts<4>();
    expectLaneCounts<8>();
    expectLaneCounts<16>();
    expectLaneCounts<32>();
    expectLaneCounts<64>();
}

TEST(Swar, WordPopcountMatchesStdPopcount)
{
    for (std::uint64_t x : testWords())
        EXPECT_EQ(swar::wordPopcount(x), unsigned(std::popcount(x)));
}
