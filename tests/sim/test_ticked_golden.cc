/**
 * @file
 * Golden-file equivalence suite for the ticked DESC link engine.
 *
 * The cycle-accurate ticked loop is the oracle the behavioral
 * DescScheme is certified against, so its observable output must
 * never drift: these tests replay fixed scenarios (every skip mode, a
 * VCD observer, the link trace channel, and an ECC fault-injection
 * run) and byte-compare the resulting VCD file, trace lines, received
 * blocks, and transfer results against committed golden files.
 *
 * The goldens under tests/sim/golden/ were generated from the
 * pre-bit-plane scalar engine; regenerate deliberately (after proving
 * equivalence some other way) with
 *
 *     DESC_GOLDEN_REGEN=1 ./build/tests/tests_sim \
 *         --gtest_filter='TickedGolden*'
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/trace.hh"
#include "core/chunk.hh"
#include "core/link.hh"
#include "ecc/blockcodec.hh"
#include "sim/vcd.hh"

using namespace desc;
using namespace desc::core;

namespace {

std::filesystem::path
goldenDir()
{
    return std::filesystem::path(__FILE__).parent_path() / "golden";
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Deterministic block stream shared by generator and checker. */
std::vector<BitVec>
scenarioBlocks(unsigned block_bits, unsigned chunk_bits, unsigned n,
               std::uint32_t seed)
{
    Rng rng(seed);
    std::vector<BitVec> blocks;
    BitVec prev(block_bits);
    for (unsigned i = 0; i < n; i++) {
        BitVec b(block_bits);
        b.randomize(rng);
        if (i % 3 == 1) { // zero-rich block
            for (unsigned pos = 0; pos + chunk_bits <= block_bits;
                 pos += 2 * chunk_bits)
                b.setField(pos, chunk_bits, 0);
        } else if (i % 3 == 2) { // near-repeat of the previous block
            b = prev;
            b.flipBit((7 * i) % block_bits);
        }
        prev = b;
        blocks.push_back(b);
    }
    return blocks;
}

struct Scenario
{
    const char *name;
    DescConfig cfg;
    unsigned blocks;
    std::uint32_t seed;
    bool fault; //!< attach the deterministic toggle-fault hook
};

/**
 * Run one scenario through a ticked link with a VCD observer and the
 * link trace channel live, and render every observable output into
 * one canonical text blob: the VCD bytes, the trace lines, each
 * received block, and each TransferResult.
 */
std::string
runScenario(const Scenario &sc)
{
    namespace fs = std::filesystem;
    fs::path tmp = fs::temp_directory_path();
    fs::path vcd_path = tmp / (std::string("desc_golden_")
                               + sc.name + ".vcd");
    fs::path trace_path = tmp / (std::string("desc_golden_")
                                 + sc.name + ".trace");

    DescLink link(sc.cfg);

    sim::VcdWriter vcd;
    EXPECT_TRUE(vcd.open(vcd_path.string()));
    auto sigs = vcd.addBundle(sc.name, sc.cfg.activeWires());
    vcd.endHeader();
    link.setWireHook([&](Cycle t, const WireBundle &w) {
        vcd.sampleBundle(sigs, t, w);
    });

    if (sc.fault) {
        // Deterministic DESC-signaling fault (Section 3.2.3): suppress
        // the first toggle of wire 2 for one cycle (it arrives late,
        // displacing one chunk value), and glitch the sync strobe once.
        bool armed = true;
        bool prev2 = false;
        link.setFaultHook([armed, prev2](Cycle t, WireBundle &w) mutable {
            if (t == 9)
                w.sync = !w.sync;
            bool lvl = w.data[2];
            if (armed && lvl != prev2) {
                w.data[2] = prev2;
                armed = false;
                return;
            }
            prev2 = lvl;
        });
    }

    std::FILE *trace_out = std::fopen(trace_path.string().c_str(), "w");
    EXPECT_NE(trace_out, nullptr);
    const std::uint32_t saved_mask = trace::mask();
    trace::setMask(1u << unsigned(trace::Channel::Link));
    trace::setStream(trace_out);

    std::ostringstream out;
    auto blocks = scenarioBlocks(sc.cfg.block_bits, sc.cfg.chunk_bits,
                                 sc.blocks, sc.seed);
    if (sc.fault) {
        // The faulted wire must carry a value the delayed toggle can
        // displace without leaving the chunk range: chunk c = value c
        // puts value 2 on wire 2 (decoded as 3 under the fault).
        for (unsigned c = 0; c * sc.cfg.chunk_bits < sc.cfg.block_bits;
             c++)
            blocks[0].setField(c * sc.cfg.chunk_bits, sc.cfg.chunk_bits,
                               c & ((1u << sc.cfg.chunk_bits) - 1));
    }
    for (unsigned i = 0; i < blocks.size(); i++) {
        BitVec recv;
        auto r = link.transferBlock(blocks[i], &recv);
        out << "block " << i << ": cycles=" << r.cycles
            << " data_flips=" << r.data_flips
            << " control_flips=" << r.control_flips
            << " skipped=" << r.skipped
            << " recv=" << recv.toHex() << "\n";
    }
    out << "tx_last=";
    for (auto v : link.tx().lastValues())
        out << unsigned(v) << ",";
    out << "\nrx_last=";
    for (auto v : link.rx().lastValues())
        out << unsigned(v) << ",";
    out << "\n";

    trace::setStream(nullptr);
    trace::setMask(saved_mask);
    std::fclose(trace_out);
    vcd.close();

    std::string result = "=== transfers ===\n" + out.str()
        + "=== vcd ===\n" + readFile(vcd_path)
        + "=== trace ===\n" + readFile(trace_path);
    fs::remove(vcd_path);
    fs::remove(trace_path);
    return result;
}

void
checkScenario(const Scenario &sc)
{
    std::string got = runScenario(sc);
    std::filesystem::path golden =
        goldenDir() / (std::string(sc.name) + ".golden");
    if (std::getenv("DESC_GOLDEN_REGEN")) {
        std::ofstream out(golden, std::ios::binary);
        out << got;
        GTEST_SKIP() << "regenerated " << golden;
    }
    ASSERT_TRUE(std::filesystem::exists(golden))
        << "missing golden file " << golden;
    std::string want = readFile(golden);
    ASSERT_EQ(want.size(), got.size())
        << "ticked-engine output size drifted for " << sc.name;
    ASSERT_EQ(want, got)
        << "ticked-engine output drifted for " << sc.name;
}

DescConfig
makeCfg(unsigned wires, unsigned chunk_bits, unsigned block_bits,
        SkipMode skip)
{
    DescConfig c;
    c.bus_wires = wires;
    c.chunk_bits = chunk_bits;
    c.block_bits = block_bits;
    c.skip = skip;
    return c;
}

} // namespace

TEST(TickedGolden, BasicMode)
{
    checkScenario({"basic8", makeCfg(8, 3, 24, SkipMode::None), 4,
                   0xb851c, false});
}

TEST(TickedGolden, ZeroSkip)
{
    checkScenario({"zero16", makeCfg(16, 4, 64, SkipMode::Zero), 5,
                   0x2e105, false});
}

TEST(TickedGolden, ZeroSkipMultiWave)
{
    checkScenario({"zwave8", makeCfg(8, 4, 64, SkipMode::Zero), 4,
                   0x3a3e2, false});
}

TEST(TickedGolden, LastValueSkip)
{
    checkScenario({"lastv8", makeCfg(8, 4, 32, SkipMode::LastValue), 6,
                   0x1a57e, false});
}

TEST(TickedGolden, AdaptiveSkip)
{
    checkScenario({"adapt8", makeCfg(8, 4, 32, SkipMode::Adaptive), 8,
                   0xada97, false});
}

TEST(TickedGolden, FaultInjection)
{
    checkScenario({"fault16", makeCfg(16, 4, 64, SkipMode::None), 3,
                   0xfa017, true});
}

TEST(TickedGolden, EccFaultInjectionStaysCorrectable)
{
    // The full ECC story on the ticked engine: a SECDED-encoded bus
    // word streams through a faulted link (one displaced toggle = one
    // corrupted chunk) and the interleaved layout of Figure 9 corrects
    // the result. The waveform and trace of a faulted ticked run are
    // pinned by the fault16 golden above; here the end-to-end decode
    // outcome is pinned.
    ecc::BlockCodec codec(kBlockBits, 64);
    DescConfig cfg = makeCfg(128 + codec.totalParityBits() / 4, 4,
                             codec.busBits(), SkipMode::None);
    DescLink link(cfg);

    bool armed = true;
    bool prev = false;
    link.setFaultHook([&](Cycle, WireBundle &w) {
        bool lvl = w.data[4];
        if (armed && lvl != prev) {
            w.data[4] = prev; // delay wire 4's toggle by one cycle
            armed = false;
            return;
        }
        prev = lvl;
    });

    Rng rng(0xecc5eed);
    BitVec payload(kBlockBits);
    payload.randomize(rng);
    // Wire 4 carries bus chunk 4 (payload bits 16..19); pin it below
    // the chunk maximum so the delayed toggle decodes to value+1
    // instead of running off the code range.
    payload.setField(16, 4, 5);
    BitVec bus;
    codec.encodeInto(payload, bus);

    BitVec recv;
    link.transferBlock(bus, &recv);
    ASSERT_NE(recv, bus) << "fault hook did not corrupt the bus word";
    EXPECT_EQ(recv.field(16, 4), 6u) << "delayed toggle should decode +1";

    auto decoded = codec.decode(recv);
    EXPECT_FALSE(decoded.uncorrectable());
    EXPECT_GE(decoded.corrected, 1u);
    EXPECT_EQ(decoded.block, payload)
        << "interleaved SECDED failed to correct a single chunk fault";
}
