/**
 * @file
 * Property-based equivalence suite: the behavioral DescScheme must
 * agree bit-exactly with the cycle-accurate transmitter/receiver pair
 * on cycles, data transitions, and control transitions, across the
 * whole configuration space and across value distributions, and the
 * receiver must always recover the transmitted block. A long lockstep
 * stream keeps the transmitter's and receiver's skip state in step.
 *
 * The second half pins the fast path figure runs take — DescScheme's
 * word pass, with the scalar walk as its reference — against the
 * ticked link, including the reference hook toggled mid-stream, the
 * ECC bus layouts, and the per-cycle observers only the ticked loop
 * serves.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "common/trace.hh"
#include "core/descscheme.hh"
#include "core/link.hh"
#include "ecc/blockcodec.hh"

#include "../encoding/differential.hh"

using namespace desc;
using namespace desc::core;

namespace {

/** (wires, chunk_bits, skip mode) */
using Param = std::tuple<unsigned, unsigned, SkipMode>;

/** Draw a block whose chunk values are biased toward zero and toward
 *  repeating the previous block, like real cache traffic. */
BitVec
biasedBlock(Rng &rng, const BitVec &prev, unsigned chunk_bits,
            double zero_p, double repeat_p)
{
    BitVec block(prev.width());
    for (unsigned pos = 0; pos < block.width(); pos += chunk_bits) {
        double u = rng.uniform();
        std::uint64_t v;
        if (u < zero_p)
            v = 0;
        else if (u < zero_p + repeat_p)
            v = prev.field(pos, chunk_bits);
        else
            v = rng.below(std::uint64_t{1} << chunk_bits);
        block.setField(pos, chunk_bits, v);
    }
    return block;
}

} // namespace

class DescEquivalence : public ::testing::TestWithParam<Param>
{
  protected:
    DescConfig
    config() const
    {
        auto [wires, chunk_bits, skip] = GetParam();
        DescConfig c;
        c.bus_wires = wires;
        c.chunk_bits = chunk_bits;
        c.block_bits = kBlockBits;
        c.skip = skip;
        return c;
    }
};

TEST_P(DescEquivalence, BehavioralMatchesCycleAccurate)
{
    DescConfig cfg = config();
    DescLink link(cfg);
    DescScheme scheme(cfg);
    Rng rng(0xec0de + cfg.bus_wires * 31 + cfg.chunk_bits);

    BitVec prev(kBlockBits);
    for (int i = 0; i < 40; i++) {
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, 0.3, 0.2);
        prev = block;

        BitVec recv;
        auto hw = link.transferBlock(block, &recv);
        auto model = scheme.transfer(block);

        ASSERT_EQ(recv, block) << "round-trip corruption at block " << i;
        EXPECT_EQ(model.cycles, hw.cycles) << "block " << i;
        EXPECT_EQ(model.data_flips, hw.data_flips) << "block " << i;
        EXPECT_EQ(model.control_flips, hw.control_flips) << "block " << i;
        EXPECT_EQ(model.skipped, hw.skipped) << "block " << i;
    }
}

TEST_P(DescEquivalence, RandomizedDifferential)
{
    // Seeded randomized differential test: for each configuration,
    // stream blocks drawn from several value distributions through
    // one long-lived link/scheme pair (so skip state carries across
    // distribution changes) and require bit-exact agreement on every
    // reported statistic.
    DescConfig cfg = config();
    DescLink link(cfg);
    DescScheme scheme(cfg);
    Rng rng(0xd1ff + cfg.bus_wires * 131 + cfg.chunk_bits * 7
            + unsigned(cfg.skip));

    struct Dist
    {
        double zero_p;
        double repeat_p;
    };
    // uniform, zero-rich, repeat-rich, and mixed traffic
    const Dist dists[] = {{0.0, 0.0}, {0.7, 0.1}, {0.1, 0.7}, {0.4, 0.4}};

    BitVec prev(kBlockBits);
    int n = 0;
    for (const Dist &d : dists) {
        for (int i = 0; i < 25; i++, n++) {
            BitVec block =
                biasedBlock(rng, prev, cfg.chunk_bits, d.zero_p, d.repeat_p);
            prev = block;

            BitVec recv;
            auto hw = link.transferBlock(block, &recv);
            auto model = scheme.transfer(block);

            ASSERT_EQ(recv, block) << "round-trip corruption at block " << n;
            ASSERT_EQ(model.cycles, hw.cycles) << "block " << n;
            ASSERT_EQ(model.data_flips, hw.data_flips) << "block " << n;
            ASSERT_EQ(model.control_flips, hw.control_flips)
                << "block " << n;
            ASSERT_EQ(model.skipped, hw.skipped) << "block " << n;
        }
    }
}

TEST_P(DescEquivalence, AllZeroAndAllOnesBlocks)
{
    DescConfig cfg = config();
    DescLink link(cfg);
    DescScheme scheme(cfg);

    BitVec zeros(kBlockBits);
    BitVec ones(kBlockBits);
    ones.invertRange(0, kBlockBits);

    for (const BitVec &block : {zeros, ones, zeros, zeros, ones}) {
        BitVec recv;
        auto hw = link.transferBlock(block, &recv);
        auto model = scheme.transfer(block);
        ASSERT_EQ(recv, block);
        EXPECT_EQ(model.cycles, hw.cycles);
        EXPECT_EQ(model.data_flips, hw.data_flips);
        EXPECT_EQ(model.control_flips, hw.control_flips);
    }
}

TEST_P(DescEquivalence, AdaptiveCountersSurviveLongStreams)
{
    // The skip decision is pure history: the last-value tables and the
    // adaptive counters carry across transfers, so one mis-updated
    // entry stays invisible for a while and then flips a best-value
    // decision. Stream 240 blocks across four value distributions
    // (the trackers decay and re-learn) and require the behavioral
    // model to match the ticked link on every block, and the
    // transmitter's and receiver's skip state to stay in lockstep.
    DescConfig cfg = config();
    DescLink link(cfg);
    DescScheme scheme(cfg);
    Rng rng(0xadab + cfg.bus_wires * 3 + cfg.chunk_bits);

    struct Dist
    {
        double zero_p;
        double repeat_p;
    };
    const Dist dists[] = {{0.0, 0.0}, {0.7, 0.1}, {0.1, 0.7}, {0.4, 0.4}};

    BitVec prev(kBlockBits);
    int n = 0;
    for (const Dist &d : dists) {
        for (int i = 0; i < 60; i++, n++) {
            BitVec block =
                biasedBlock(rng, prev, cfg.chunk_bits, d.zero_p, d.repeat_p);
            prev = block;

            BitVec recv;
            auto hw = link.transferBlock(block, &recv);
            auto model = scheme.transfer(block);

            ASSERT_EQ(recv, block) << "round-trip corruption at block " << n;
            ASSERT_EQ(model.cycles, hw.cycles) << "block " << n;
            ASSERT_EQ(model.data_flips, hw.data_flips) << "block " << n;
            ASSERT_EQ(model.control_flips, hw.control_flips)
                << "block " << n;
            ASSERT_EQ(model.skipped, hw.skipped) << "block " << n;
            ASSERT_EQ(link.tx().lastValues(), link.rx().lastValues())
                << "tx/rx last-value tables diverged at block " << n;
            ASSERT_TRUE(link.tx().adaptive() == link.rx().adaptive())
                << "tx/rx adaptive counters diverged at block " << n;
        }
    }
    EXPECT_EQ(n, 240);
}

TEST_P(DescEquivalence, DataFlipsNeverExceedChunkCount)
{
    DescConfig cfg = config();
    DescScheme scheme(cfg);
    Rng rng(77);
    BitVec prev(kBlockBits);
    for (int i = 0; i < 50; i++) {
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, 0.1, 0.1);
        prev = block;
        auto r = scheme.transfer(block);
        EXPECT_LE(r.data_flips, cfg.numChunks());
        EXPECT_EQ(r.data_flips + r.skipped, cfg.numChunks());
    }
}

TEST_P(DescEquivalence, WindowBoundedByWorstCase)
{
    DescConfig cfg = config();
    DescScheme scheme(cfg);
    Rng rng(78);
    // Worst case per wave is the largest pulse delay; basic mode
    // additionally streams numWaves chunks per wire back to back.
    const Cycle max_delay = (Cycle{1} << cfg.chunk_bits);
    const Cycle bound = 1 + cfg.numWaves() * max_delay;
    BitVec prev(kBlockBits);
    for (int i = 0; i < 50; i++) {
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, 0.3, 0.3);
        prev = block;
        EXPECT_LE(scheme.transfer(block).cycles, bound);
    }
}

namespace {

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    unsigned wires = std::get<0>(info.param);
    unsigned bits = std::get<1>(info.param);
    SkipMode skip = std::get<2>(info.param);
    std::string name = "w";
    name += std::to_string(wires) + "_c" + std::to_string(bits) + "_";
    switch (skip) {
      case SkipMode::None:
        name += "basic";
        break;
      case SkipMode::Zero:
        name += "zero";
        break;
      case SkipMode::LastValue:
        name += "last";
        break;
      case SkipMode::Adaptive:
        name += "adaptive";
        break;
    }
    return name;
}

/** Every bus width, chunk width and skip mode. */
auto
configSpace()
{
    return ::testing::Combine(
        ::testing::Values(16u, 32u, 64u, 128u, 256u),
        ::testing::Values(1u, 2u, 4u, 8u),
        ::testing::Values(SkipMode::None, SkipMode::Zero,
                          SkipMode::LastValue, SkipMode::Adaptive));
}

} // namespace

INSTANTIATE_TEST_SUITE_P(ConfigSpace, DescEquivalence, configSpace(),
                         paramName);

namespace {

void
expectSameResult(const encoding::TransferResult &fast,
                 const encoding::TransferResult &ticked, int block_no)
{
    ASSERT_EQ(fast.cycles, ticked.cycles) << "block " << block_no;
    ASSERT_EQ(fast.data_flips, ticked.data_flips) << "block " << block_no;
    ASSERT_EQ(fast.control_flips, ticked.control_flips)
        << "block " << block_no;
    ASSERT_EQ(fast.skipped, ticked.skipped) << "block " << block_no;
}

/** A scheme built on the scalar reference walk. */
DescScheme
referenceScheme(const DescConfig &cfg)
{
    encoding::difftest::ReferenceEncoders on;
    return DescScheme(cfg);
}

/** The link's endpoints agree on all skip state they carry forward. */
void
expectEndpointsInStep(DescLink &link, int block_no)
{
    EXPECT_EQ(link.tx().lastValues(), link.rx().lastValues())
        << "last-value tables, block " << block_no;
    EXPECT_TRUE(link.tx().adaptive() == link.rx().adaptive())
        << "adaptive counters, block " << block_no;
}

} // namespace

/**
 * The fast path against the ticked loop. Figure runs move every DESC
 * block through the behavioral DescScheme, which takes the word pass
 * where the geometry allows and the scalar walk otherwise; the ticked
 * DescLink is the circuit both stand in for. The default DescScheme
 * and one built on the reference walk must agree with the ticked link on
 * every TransferResult field, block after block, while the link
 * recovers every block.
 */
class LinkFastPath : public DescEquivalence
{
};

TEST_P(LinkFastPath, BitIdenticalToTickedLoop)
{
    DescConfig cfg = config();
    DescScheme fast(cfg);
    DescScheme scalar = referenceScheme(cfg);
    DescLink ticked(cfg);
    ASSERT_FALSE(scalar.usesWordPass());
    Rng rng(0xfa57 + cfg.bus_wires * 131 + cfg.chunk_bits * 7
            + unsigned(cfg.skip));

    struct Dist
    {
        double zero_p;
        double repeat_p;
    };
    // uniform, zero-rich, repeat-rich, and mixed traffic
    const Dist dists[] = {{0.0, 0.0}, {0.7, 0.1}, {0.1, 0.7}, {0.4, 0.4}};

    BitVec prev(kBlockBits);
    int n = 0;
    for (const Dist &d : dists) {
        for (int i = 0; i < 25; i++, n++) {
            BitVec block =
                biasedBlock(rng, prev, cfg.chunk_bits, d.zero_p, d.repeat_p);
            prev = block;

            BitVec recv;
            auto rt = ticked.transferBlock(block, &recv);
            ASSERT_EQ(recv, block) << "ticked round trip, block " << n;
            expectSameResult(fast.transfer(block), rt, n);
            expectSameResult(scalar.transfer(block), rt, n);
            expectEndpointsInStep(ticked, n);
        }
    }
}

TEST_P(LinkFastPath, ExtremeBlocks)
{
    DescConfig cfg = config();
    DescScheme fast(cfg);
    DescScheme scalar = referenceScheme(cfg);
    DescLink ticked(cfg);

    BitVec zeros(kBlockBits);
    BitVec ones(kBlockBits);
    ones.invertRange(0, kBlockBits);

    int n = 0;
    for (const BitVec &block : {zeros, ones, zeros, zeros, ones}) {
        BitVec recv;
        auto rt = ticked.transferBlock(block, &recv);
        ASSERT_EQ(recv, block) << "block " << n;
        expectSameResult(fast.transfer(block), rt, n);
        expectSameResult(scalar.transfer(block), rt, n);
        expectEndpointsInStep(ticked, n);
        n++;
    }
}

TEST_P(LinkFastPath, InterleavedPathsMatchPureTicked)
{
    // The reference hook is read once, at construction. Toggling it
    // between blocks must move neither a scheme built with it on nor
    // one built with it off from its latched path, and both must stay
    // indistinguishable from the ticked link.
    DescConfig cfg = config();
    DescScheme ref = referenceScheme(cfg);
    DescScheme word(cfg);
    const bool word_pass = word.usesWordPass();
    DescLink ticked(cfg);
    Rng rng(0x1237 + cfg.bus_wires + cfg.chunk_bits);
    encoding::difftest::ReferenceEncoders restore_on_exit;

    BitVec prev(kBlockBits);
    for (int i = 0; i < 60; i++) {
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, 0.4, 0.3);
        prev = block;

        encoding::setReferenceEncoders(i % 3 == 1);
        ASSERT_FALSE(ref.usesWordPass()) << "block " << i;
        ASSERT_EQ(word.usesWordPass(), word_pass) << "block " << i;

        BitVec recv;
        auto rt = ticked.transferBlock(block, &recv);
        ASSERT_EQ(recv, block) << "block " << i;
        expectSameResult(ref.transfer(block), rt, i);
        expectSameResult(word.transfer(block), rt, i);
    }
}

INSTANTIATE_TEST_SUITE_P(ConfigSpace, LinkFastPath, configSpace(), paramName);

TEST(LinkFastPathEcc, EccLayoutsMatchTicked)
{
    // The ECC bus layouts of Figure 9: the (137,128) and (72,64) codes
    // widen the bus by the parity chunks, giving non-power-of-two wire
    // counts and block widths. Stream codec-encoded blocks through the
    // behavioral model and the ticked link.
    for (unsigned seg_bits : {128u, 64u}) {
        ecc::BlockCodec codec(kBlockBits, seg_bits);
        ASSERT_EQ(codec.totalParityBits() % 4, 0u);

        DescConfig cfg;
        cfg.chunk_bits = 4;
        cfg.block_bits = codec.busBits();
        cfg.bus_wires = 128 + codec.totalParityBits() / 4;
        cfg.skip = SkipMode::Zero;

        DescLink ticked(cfg);
        DescScheme fast(cfg);
        Rng rng(0xecc0 + seg_bits);

        BitVec prev(kBlockBits);
        BitVec bus;
        for (int i = 0; i < 30; i++) {
            BitVec payload = biasedBlock(rng, prev, 4, 0.5, 0.2);
            prev = payload;
            codec.encodeInto(payload, bus);

            BitVec recv;
            auto rt = ticked.transferBlock(bus, &recv);
            ASSERT_EQ(recv, bus) << "seg " << seg_bits << " block " << i;
            expectSameResult(fast.transfer(bus), rt, i);
            expectEndpointsInStep(ticked, i);
        }
    }
}

/*
 * Per-cycle observers — the wire hook (VCD export), the fault hook
 * and the link trace channel — exist only on the ticked loop, which
 * the VCD and fault-injection tools drive; the cache hierarchy always
 * runs the behavioral DescScheme. Each observer must see every cycle
 * and leave the statistics exactly as the behavioral fast path
 * computes them.
 */

TEST(LinkFastPathSelect, WireHookForcesTickedLoop)
{
    DescConfig cfg;
    DescLink ticked(cfg);
    DescScheme fast(cfg);
    std::vector<Cycle> observed;
    ticked.setWireHook(
        [&](Cycle t, const WireBundle &) { observed.push_back(t); });
    Rng rng(26);
    Cycle total = 0;
    for (int i = 0; i < 3; i++) {
        BitVec block(cfg.block_bits);
        block.randomize(rng);
        auto r = ticked.transferBlock(block);
        expectSameResult(fast.transfer(block), r, i);
        total += r.cycles;
        ASSERT_EQ(observed.size(), total) << "block " << i;
    }
    // One snapshot per cycle, stamped with the link's monotonic clock.
    for (Cycle c = 0; c < total; c++)
        ASSERT_EQ(observed[c], c);
}

TEST(LinkFastPathSelect, FaultHookForcesTickedLoop)
{
    DescConfig cfg;
    DescLink ticked(cfg);
    DescScheme fast(cfg);
    std::vector<Cycle> faulted;
    ticked.setFaultHook([&](Cycle t, WireBundle &) { faulted.push_back(t); });
    Rng rng(27);
    Cycle total = 0;
    for (int i = 0; i < 3; i++) {
        BitVec block(cfg.block_bits);
        block.randomize(rng);
        BitVec recv;
        auto r = ticked.transferBlock(block, &recv);
        ASSERT_EQ(recv, block) << "block " << i;
        expectSameResult(fast.transfer(block), r, i);
        total += r.cycles;
        ASSERT_EQ(faulted.size(), total) << "block " << i;
    }
    for (Cycle c = 0; c < total; c++)
        ASSERT_EQ(faulted[c], c);
}

TEST(LinkFastPathSelect, LinkTraceChannelForcesTickedLoop)
{
    DescConfig cfg;
    cfg.skip = SkipMode::Zero;
    DescLink ticked(cfg);
    DescScheme fast(cfg);
    Rng rng(28);
    BitVec block(cfg.block_bits);

    const std::uint32_t saved_mask = trace::mask();
    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    trace::setStream(out);

    trace::setMask(1u << unsigned(trace::Channel::Link));
    block.randomize(rng);
    auto traced = ticked.transferBlock(block);
    auto model = fast.transfer(block);
    const long traced_bytes = std::ftell(out);

    trace::setMask(0);
    block.randomize(rng);
    auto quiet = ticked.transferBlock(block);
    auto quiet_model = fast.transfer(block);
    const long total_bytes = std::ftell(out);

    trace::setStream(nullptr);
    trace::setMask(saved_mask);
    std::fclose(out);

    EXPECT_GT(traced_bytes, 0) << "traced transfer emitted nothing";
    EXPECT_EQ(total_bytes, traced_bytes) << "untraced transfer emitted";
    expectSameResult(model, traced, 0);
    expectSameResult(quiet_model, quiet, 1);
}

TEST(LinkFastPathSelect, NullReceivedPointerWorksOnBothPaths)
{
    // received == nullptr drops the recovered block without
    // materializing it, as the behavioral model always does; results
    // and endpoint state must match a link that takes every block.
    DescConfig cfg;
    cfg.skip = SkipMode::LastValue;
    DescLink discard(cfg);
    DescLink keep(cfg);
    DescScheme fast(cfg);
    Rng rng(42);

    BitVec prev(cfg.block_bits);
    for (int i = 0; i < 10; i++) {
        BitVec block = biasedBlock(rng, prev, cfg.chunk_bits, 0.3, 0.3);
        prev = block;
        BitVec recv;
        auto rd = discard.transferBlock(block); // received == nullptr
        auto rk = keep.transferBlock(block, &recv);
        ASSERT_EQ(recv, block) << "block " << i;
        expectSameResult(rd, rk, i);
        expectSameResult(fast.transfer(block), rk, i);
        EXPECT_EQ(discard.tx().wires().data, keep.tx().wires().data)
            << "block " << i;
        EXPECT_EQ(discard.tx().lastValues(), keep.tx().lastValues())
            << "block " << i;
        EXPECT_EQ(discard.rx().lastValues(), keep.rx().lastValues())
            << "block " << i;
        expectEndpointsInStep(discard, i);
    }
}
