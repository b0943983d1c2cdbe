/**
 * @file
 * Shared pieces of the segment-scheme differential tests: a block
 * stream that walks the decision boundaries of the word passes, and a
 * guard that builds a scheme under a forced encoder mode.
 */

#ifndef DESC_TESTS_ENCODING_DIFFERENTIAL_HH
#define DESC_TESTS_ENCODING_DIFFERENTIAL_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/bitvec.hh"
#include "common/rng.hh"
#include "encoding/scheme.hh"

namespace desc::encoding::difftest {

/** Forces the process-wide default encoder mode for one scope. */
struct ForcedEncoderMode
{
    explicit ForcedEncoderMode(EncoderMode mode)
    {
        setDefaultEncoderMode(mode);
    }

    ~ForcedEncoderMode() { setDefaultEncoderMode(std::nullopt); }
};

/**
 * Block @p i of a differential stream over @p seg-bit segments. The
 * kinds rotate: uniform random, sparse (a few set bits), dense (a
 * few clear bits), all-zero, all-one, and segment-striped (each
 * segment independently zero, all-one, random or one-hot), so every
 * segment sees zero values, near-threshold flip counts, and the
 * wires-already-idle cases of the zero-skip rules.
 */
inline BitVec
differentialBlock(Rng &rng, unsigned i, unsigned width, unsigned seg)
{
    BitVec b(width);
    switch (i % 6) {
      case 0:
        b.randomize(rng);
        break;
      case 1:
        for (unsigned k = 1 + unsigned(rng.below(8)); k > 0; k--)
            b.setBit(unsigned(rng.below(width)), true);
        break;
      case 2:
        b.invertRange(0, width);
        for (unsigned k = 1 + unsigned(rng.below(8)); k > 0; k--)
            b.setBit(unsigned(rng.below(width)), false);
        break;
      case 3:
        break;
      case 4:
        b.invertRange(0, width);
        break;
      case 5:
        for (unsigned pos = 0; pos < width; pos += seg) {
            const unsigned len = std::min(seg, width - pos);
            const std::uint64_t ones = len == 64
                ? ~std::uint64_t{0}
                : (std::uint64_t{1} << len) - 1;
            switch (rng.below(4)) {
              case 0:
                break;
              case 1:
                b.setField(pos, len, ones);
                break;
              case 2:
                b.setField(pos, len, rng.next());
                break;
              case 3:
                b.setField(pos, len,
                           std::uint64_t{1} << rng.below(len));
                break;
            }
        }
        break;
    }
    return b;
}

/** Every TransferResult field must match the scalar reference. */
inline void
expectSameResult(const TransferResult &got, const TransferResult &ref)
{
    EXPECT_EQ(got.cycles, ref.cycles);
    EXPECT_EQ(got.data_flips, ref.data_flips);
    EXPECT_EQ(got.control_flips, ref.control_flips);
    EXPECT_EQ(got.skipped, ref.skipped);
}

} // namespace desc::encoding::difftest

#endif // DESC_TESTS_ENCODING_DIFFERENTIAL_HH
