/**
 * @file
 * DescScheme against the ticked DescLink on the figures' own traffic.
 *
 * DescScheme has one engine, the word pass, and the cycle-accurate
 * link is its only reference. DescEquivalence covers the geometry
 * space with synthetic streams; this suite replays the modeled block
 * contents of every sweep app (workloads::ValueModel) through the
 * geometries the figure harnesses build, block for block: fig16's
 * three DESC modes at 128 wires x 4-bit chunks, fig26's 32..256-wire
 * x 1/2/4/8-bit zero-skip grid (whose 32 one-bit wires give waves
 * narrower than a word), the ECC buses' single wave (137 and 144
 * wires), and the adaptive-skip ablation.
 */

#include <gtest/gtest.h>

#include "benchutil.hh"
#include "common/rng.hh"
#include "core/descscheme.hh"
#include "core/link.hh"
#include "ecc/blockcodec.hh"
#include "workloads/valuemodel.hh"

using namespace desc;
using namespace desc::core;

namespace {

constexpr unsigned kBlocks = 300;

DescConfig
descConfig(unsigned wires, unsigned chunk_bits, SkipMode skip)
{
    DescConfig cfg;
    cfg.bus_wires = wires;
    cfg.chunk_bits = chunk_bits;
    cfg.skip = skip;
    return cfg;
}

/**
 * Stream kBlocks modeled blocks of every sweep app through a fresh
 * DescScheme and DescLink of @p cfg (through @p codec first, if
 * given) and require the same TransferResult for every block.
 */
void
expectMatchesTicked(const DescConfig &cfg,
                    const ecc::BlockCodec *codec = nullptr)
{
    for (const auto &app : bench::sweepApps()) {
        SCOPED_TRACE(::testing::Message()
                     << app.name << ": " << cfg.bus_wires << " wires x "
                     << cfg.chunk_bits << "-bit chunks, "
                     << skipModeName(cfg.skip));
        DescScheme fast(cfg);
        DescLink ticked(cfg);
        workloads::ValueModel values(app, 19);
        Rng rng(cfg.bus_wires * 31 + cfg.chunk_bits);
        BitVec raw(kBlockBits);
        BitVec bus;
        for (unsigned i = 0; i < kBlocks; i++) {
            // Addresses repeat often enough that whole blocks recur,
            // as re-read lines do.
            const auto blk = values.block(Addr(rng.below(256)) * 64);
            raw.fromBytes(
                reinterpret_cast<const std::uint8_t *>(blk.data()), 64);
            const BitVec *sent = &raw;
            if (codec) {
                codec->encodeInto(raw, bus);
                sent = &bus;
            }
            BitVec recv;
            const auto rt = ticked.transferBlock(*sent, &recv);
            ASSERT_EQ(recv, *sent) << "ticked round trip, block " << i;
            const auto got = fast.transfer(*sent);
            ASSERT_EQ(got.cycles, rt.cycles) << "block " << i;
            ASSERT_EQ(got.data_flips, rt.data_flips) << "block " << i;
            ASSERT_EQ(got.control_flips, rt.control_flips)
                << "block " << i;
            ASSERT_EQ(got.skipped, rt.skipped) << "block " << i;
        }
    }
}

} // namespace

TEST(DescFigureStreams, Fig16ModesMatchTicked)
{
    for (SkipMode skip :
         {SkipMode::None, SkipMode::Zero, SkipMode::LastValue})
        expectMatchesTicked(descConfig(128, 4, skip));
}

TEST(DescFigureStreams, Fig26GridMatchesTicked)
{
    for (unsigned chunk : {1u, 2u, 4u, 8u}) {
        for (unsigned wires : {32u, 64u, 128u, 256u})
            expectMatchesTicked(descConfig(wires, chunk, SkipMode::Zero));
    }
}

TEST(DescFigureStreams, EccSingleWaveMatchesTicked)
{
    // The SECDED codes of Figure 9 add their parity chunks on extra
    // wires: (137,128) gives 137 wires, (72,64) 144, one wave each.
    for (unsigned seg_bits : {128u, 64u}) {
        ecc::BlockCodec codec(kBlockBits, seg_bits);
        DescConfig cfg = descConfig(128 + codec.totalParityBits() / 4, 4,
                                    SkipMode::Zero);
        cfg.block_bits = codec.busBits();
        ASSERT_EQ(cfg.numWaves(), 1u);
        expectMatchesTicked(cfg, &codec);
    }
}

TEST(DescFigureStreams, AdaptiveAblationMatchesTicked)
{
    // bench/ablation_adaptive_skip's adaptive policy on the default
    // 128-wire, 4-bit link (its other three policies are fig16's).
    expectMatchesTicked(descConfig(128, 4, SkipMode::Adaptive));
}
