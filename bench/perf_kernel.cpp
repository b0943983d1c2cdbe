/**
 * @file
 * Simulation-kernel microbenchmarks: event-queue throughput, link,
 * scheme, bus-invert and ECC block rates, and end-to-end simulated-cycle
 * rate. Writes
 * BENCH_kernel.json (see README); the committed copy of that file is
 * the CI regression baseline.
 *
 * The runsystem check value doubles as a determinism probe: the cycle
 * count of the fixed workload must not depend on wall-clock timing.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/prof.hh"
#include "common/rng.hh"
#include "core/chunk.hh"
#include "core/descscheme.hh"
#include "core/link.hh"
#include "ecc/blockcodec.hh"
#include "encoding/businvert.hh"
#include "encoding/scheme.hh"
#include "sim/eventq.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "sim/vcd.hh"

using namespace desc;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Steady-state contract of the desc::env registry: every knob a hot
 * component consults is memoized at its call site, so a measured
 * region performs zero environment lookups. Each kernel snapshots
 * the registry's lookup counter before its timed loop and fails the
 * bench if the counter moved.
 */
std::uint64_t
envReads()
{
    return env::lookupCount();
}

void
assertNoEnvReads(std::uint64_t before, const char *what)
{
    const std::uint64_t moved = env::lookupCount() - before;
    if (moved == 0)
        return;
    std::fprintf(stderr,
                 "FAIL: %s performed %llu environment lookups inside "
                 "the measured region (memoize the knob at its call "
                 "site)\n",
                 what, (unsigned long long)moved);
    std::exit(1);
}

/**
 * A recurring component event, the steady-state pattern of the ported
 * models: the same object reschedules itself with a small
 * data-dependent period. No allocation ever happens in this loop.
 */
struct CompEvent final : sim::Event
{
    void
    process() override
    {
        payload_a += id;
        payload_b ^= payload_a;
        if (*stop)
            return;
        eq->scheduleIn(*this, 1 + (id & 3));
    }

    sim::EventQueue *eq = nullptr;
    unsigned id = 0;
    std::uint64_t payload_a = 0;
    std::uint64_t payload_b = 0;
    bool *stop = nullptr;
};

double
benchEventQueue(std::uint64_t target_events)
{
    sim::EventQueue eq;
    bool stop = false;
    std::vector<CompEvent> comps(64);
    for (unsigned i = 0; i < 64; i++) {
        comps[i].eq = &eq;
        comps[i].id = i;
        comps[i].stop = &stop;
        eq.schedule(comps[i], 1 + (i & 3));
    }

    auto t0 = Clock::now();
    auto reads = envReads();
    std::uint64_t executed = 0;
    while (executed < target_events)
        executed += eq.run(eq.now() + 4096);
    double dt = secondsSince(t0);
    assertNoEnvReads(reads, "eventq kernel");
    stop = true;
    eq.run();
    return double(executed) / dt;
}

std::vector<BitVec>
makeBlocks(unsigned chunk_bits)
{
    // Mix of uniform-random, zero-rich, and repeating blocks, like
    // real cache traffic.
    Rng rng(42);
    std::vector<BitVec> blocks;
    for (unsigned i = 0; i < 64; i++) {
        BitVec b(kBlockBits);
        b.randomize(rng);
        if (i % 4 == 1) {
            for (unsigned pos = 0; pos + chunk_bits <= kBlockBits;
                 pos += 2 * chunk_bits)
                b.setField(pos, chunk_bits, 0);
        } else if (i % 4 == 3 && i > 0) {
            b = blocks[i - 1];
            b.flipBit(i % kBlockBits);
        }
        blocks.push_back(b);
    }
    return blocks;
}

core::DescConfig
linkConfig()
{
    core::DescConfig cfg;
    cfg.bus_wires = 128;
    cfg.chunk_bits = 4;
    cfg.skip = core::SkipMode::Zero;
    return cfg;
}

double
benchLinkTicked(std::uint64_t blocks_n)
{
    // The cycle-accurate link loop: the engine behind VCD export,
    // fault injection and link-backed hierarchies.
    core::DescLink link(linkConfig());
    auto blocks = makeBlocks(4);
    std::uint64_t sink = 0;
    auto t0 = Clock::now();
    auto reads = envReads();
    for (std::uint64_t i = 0; i < blocks_n; i++)
        sink += link.transferBlock(blocks[i & 63]).cycles;
    double dt = secondsSince(t0);
    assertNoEnvReads(reads, "link ticked kernel");
    if (sink == 0)
        std::fprintf(stderr, "impossible\n");
    return double(blocks_n) / dt;
}

double
benchLinkTickedVcd(std::uint64_t blocks_n, const std::string &scratch)
{
    // The ticked loop with a VCD wire observer attached: what a
    // waveform export costs per block, tracked separately from the
    // bare ticked loop so the batched emission path (plane-diff
    // staging, dirty-list timesteps) stays honest.
    core::DescLink link(linkConfig());
    sim::VcdWriter vcd;
    if (!vcd.open(scratch)) {
        std::fprintf(stderr, "cannot open VCD scratch file %s\n",
                     scratch.c_str());
        std::exit(1);
    }
    auto sigs = vcd.addBundle("bench", linkConfig().activeWires());
    vcd.endHeader();
    link.setWireHook([&](Cycle t, const core::WireBundle &w) {
        vcd.sampleBundle(sigs, t, w);
    });
    auto blocks = makeBlocks(4);
    std::uint64_t sink = 0;
    auto t0 = Clock::now();
    auto reads = envReads();
    for (std::uint64_t i = 0; i < blocks_n; i++)
        sink += link.transferBlock(blocks[i & 63]).cycles;
    double dt = secondsSince(t0);
    assertNoEnvReads(reads, "link ticked+vcd kernel");
    vcd.close();
    std::remove(scratch.c_str());
    if (sink == 0)
        std::fprintf(stderr, "impossible\n");
    return double(blocks_n) / dt;
}

double
benchScheme(std::uint64_t blocks_n)
{
    core::DescScheme scheme(linkConfig());
    auto blocks = makeBlocks(4);
    std::uint64_t sink = 0;
    auto t0 = Clock::now();
    auto reads = envReads();
    for (std::uint64_t i = 0; i < blocks_n; i++)
        sink += scheme.transfer(blocks[i & 63]).cycles;
    double dt = secondsSince(t0);
    assertNoEnvReads(reads, "scheme kernel");
    if (sink == 0)
        std::fprintf(stderr, "impossible\n");
    return double(blocks_n) / dt;
}

double
benchChunkStats(std::uint64_t blocks_n)
{
    core::ChunkStats stats(4, 128);
    auto blocks = makeBlocks(4);
    auto t0 = Clock::now();
    auto reads = envReads();
    for (std::uint64_t i = 0; i < blocks_n; i++)
        stats.observe(blocks[i & 63]);
    double dt = secondsSince(t0);
    assertNoEnvReads(reads, "chunkstats kernel");
    if (stats.totalChunks() == 0)
        std::fprintf(stderr, "impossible\n");
    return double(blocks_n) / dt;
}

double
benchBusInvert(std::uint64_t blocks_n)
{
    // Zero-skipped bus invert at its Figure 16 design point: 16-bit
    // segments on the 64-wire L2 bus. The blocks clear alternate
    // 16-bit fields, so the skip rule runs as well as the invert one.
    encoding::SchemeConfig cfg;
    cfg.bus_wires = 64;
    cfg.segment_bits = 16;
    encoding::BusInvertScheme scheme(
        cfg, encoding::BusInvertScheme::Mode::ZeroSkipSparse);
    auto blocks = makeBlocks(16);
    std::uint64_t sink = 0;
    auto t0 = Clock::now();
    auto reads = envReads();
    for (std::uint64_t i = 0; i < blocks_n; i++)
        sink += scheme.transfer(blocks[i & 63]).data_flips;
    double dt = secondsSince(t0);
    assertNoEnvReads(reads, "bus-invert kernel");
    if (sink == 0)
        std::fprintf(stderr, "impossible\n");
    return double(blocks_n) / dt;
}

double
benchEcc(std::uint64_t blocks_n)
{
    // The interleaved (137,128) SECDED encode every ECC transfer pays.
    ecc::BlockCodec codec(kBlockBits, 128);
    auto blocks = makeBlocks(4);
    BitVec bus;
    std::uint64_t sink = 0;
    auto t0 = Clock::now();
    auto reads = envReads();
    for (std::uint64_t i = 0; i < blocks_n; i++) {
        codec.encodeInto(blocks[i & 63], bus);
        sink += bus.words().back();
    }
    double dt = secondsSince(t0);
    assertNoEnvReads(reads, "ecc kernel");
    if (sink == 0)
        std::fprintf(stderr, "impossible\n");
    return double(blocks_n) / dt;
}

sim::SystemConfig
benchSystemConfig(std::uint64_t insts)
{
    auto cfg = sim::baselineConfig(workloads::parallelApps()[0]);
    cfg.insts_per_thread = insts;
    sim::applyScheme(cfg, encoding::SchemeKind::DescZeroSkip);
    return cfg;
}

double
benchRunSystem(std::uint64_t insts, unsigned reps, std::uint64_t *cycles)
{
    auto cfg = benchSystemConfig(insts);

    double best = 0.0;
    auto reads = envReads();
    for (unsigned r = 0; r < reps; r++) {
        auto t0 = Clock::now();
        auto result = sim::runSystem(cfg);
        double rate = double(result.cycles) / secondsSince(t0);
        *cycles = result.cycles;
        if (rate > best)
            best = rate;
    }
    // Depends on the warm-up run in main() having already triggered
    // every lazily-memoized knob runSystem consults.
    assertNoEnvReads(reads, "runsystem");
    return best;
}

/**
 * The same workload with the encoders pinned to the scalar reference
 * walk. Tracked so a regression in the reference stays visible, and
 * doubling as an equivalence probe: the cycle count must match the
 * batched run exactly.
 */
double
benchRunSystemTicked(std::uint64_t insts, unsigned reps,
                     std::uint64_t *cycles)
{
    encoding::setDefaultEncoderMode(encoding::EncoderMode::Scalar);
    double rate = benchRunSystem(insts, reps, cycles);
    encoding::setDefaultEncoderMode(std::nullopt);
    return rate;
}

/**
 * Cost of the profiler when it is OFF, as a percentage of a
 * runsystem execution: (scopes per run) x (ns per disabled scope)
 * against the disabled run's wall time. The acceptance contract is
 * < 1%; CI fails the gate above 5%.
 */
double
benchProfOverheadPct(std::uint64_t insts, double disabled_rate,
                     std::uint64_t cycles, bool quick)
{
    // Nanoseconds per disabled scope. The barrier keeps the compiler
    // from hoisting the enabled() load (and with it the whole scope)
    // out of the loop.
    const std::uint64_t iters = quick ? 5'000'000 : 50'000'000;
    prof::setEnabled(false);
    auto t0 = Clock::now();
    auto reads = envReads();
    for (std::uint64_t i = 0; i < iters; i++) {
        DESC_PROF_SCOPE(Encoder);
        asm volatile("" ::: "memory");
    }
    double ns_per_scope = secondsSince(t0) * 1e9 / double(iters);
    assertNoEnvReads(reads, "disabled-profiler scope loop");

    // Scopes executed by one runsystem workload, counted live.
    auto cfg = benchSystemConfig(insts);
    prof::setEnabled(true);
    prof::Profile base = prof::threadProfile();
    auto result = sim::runSystem(cfg);
    std::uint64_t scopes = prof::deltaSince(base).scopes();
    prof::setEnabled(false);
    if (result.cycles != cycles)
        std::fprintf(stderr,
                     "warning: profiled run diverged (%llu vs %llu "
                     "cycles)\n",
                     (unsigned long long)result.cycles,
                     (unsigned long long)cycles);

    double run_seconds = double(cycles) / disabled_rate;
    return 100.0 * double(scopes) * ns_per_scope / 1e9 / run_seconds;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_kernel.json";
    for (int i = 1; i + 1 < argc; i++) {
        if (std::strcmp(argv[i], "--out") == 0)
            out = argv[i + 1];
    }
    bool quick = desc::env::isSet(desc::env::Var::BenchQuick);

    // One throwaway run touches every lazily-memoized knob (encoder
    // mode, sim scale, trace mask, profiler spec, snapshot cadence)
    // so the measured regions below can hold the registry's
    // steady-state contract: zero environment reads.
    {
        auto cfg = benchSystemConfig(200);
        (void)sim::runSystem(cfg);
    }

    std::uint64_t ev_n = quick ? 200'000 : 2'000'000;
    std::uint64_t link_ticked_n = quick ? 2'000 : 20'000;
    std::uint64_t scheme_n = quick ? 20'000 : 200'000;
    std::uint64_t stats_n = quick ? 20'000 : 200'000;
    std::uint64_t bi_n = quick ? 20'000 : 200'000;
    std::uint64_t ecc_n = quick ? 20'000 : 200'000;
    std::uint64_t insts = quick ? 1'000 : 3'000;
    unsigned reps = quick ? 1 : 5;

    double ev = benchEventQueue(ev_n);
    std::fprintf(stderr, "eventq:    %12.0f events/sec\n", ev);
    double link_ticked = benchLinkTicked(link_ticked_n);
    std::fprintf(stderr, "link-tick: %12.0f blocks/sec\n", link_ticked);
    double link_vcd = benchLinkTickedVcd(link_ticked_n,
                                         out + ".vcd-scratch");
    std::fprintf(stderr, "link-vcd:  %12.0f blocks/sec\n", link_vcd);
    double scheme = benchScheme(scheme_n);
    std::fprintf(stderr, "scheme:    %12.0f blocks/sec\n", scheme);
    double cstats = benchChunkStats(stats_n);
    std::fprintf(stderr, "chunkstats:%12.0f blocks/sec\n", cstats);
    double bi_rate = benchBusInvert(bi_n);
    std::fprintf(stderr, "businvert: %12.0f blocks/sec\n", bi_rate);
    double ecc_rate = benchEcc(ecc_n);
    std::fprintf(stderr, "ecc:       %12.0f blocks/sec\n", ecc_rate);
    std::uint64_t cycles = 0;
    double rs = benchRunSystem(insts, reps, &cycles);
    std::fprintf(stderr, "runsystem: %12.0f sim-cycles/sec (%llu cycles)\n",
                 rs, (unsigned long long)cycles);
    std::uint64_t cycles_ticked = 0;
    double rs_ticked = benchRunSystemTicked(insts, reps, &cycles_ticked);
    std::fprintf(stderr, "runsys-tk: %12.0f sim-cycles/sec (%llu cycles)\n",
                 rs_ticked, (unsigned long long)cycles_ticked);
    if (cycles_ticked != cycles) {
        std::fprintf(stderr,
                     "FAIL: scalar reference diverged (%llu vs %llu "
                     "cycles)\n",
                     (unsigned long long)cycles_ticked,
                     (unsigned long long)cycles);
        return 1;
    }
    double prof_pct = benchProfOverheadPct(insts, rs, cycles, quick);
    std::fprintf(stderr, "prof-off:  %12.3f %% of a runsystem run\n",
                 prof_pct);

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", out.c_str());
        return 1;
    }
    std::fprintf(f,
        "{\n"
        "  \"format\": \"desc-bench-kernel\",\n"
        "  \"version\": 1,\n"
        "  \"quick\": %s,\n"
        "  \"metrics\": {\n"
        "    \"eventq_events_per_sec\": %.0f,\n"
        "    \"link_ticked_blocks_per_sec\": %.0f,\n"
        "    \"link_ticked_vcd_blocks_per_sec\": %.0f,\n"
        "    \"scheme_blocks_per_sec\": %.0f,\n"
        "    \"chunkstats_blocks_per_sec\": %.0f,\n"
        "    \"businvert_blocks_per_sec\": %.0f,\n"
        "    \"ecc_blocks_per_sec\": %.0f,\n"
        "    \"runsystem_cycles_per_sec\": %.0f,\n"
        "    \"runsystem_ticked_cycles_per_sec\": %.0f,\n"
        "    \"runsystem_prof_overhead_pct\": %.3f\n"
        "  },\n"
        "  \"check\": { \"runsystem_cycles\": %llu }\n"
        "}\n",
        quick ? "true" : "false", ev, link_ticked, link_vcd,
        scheme, cstats, bi_rate, ecc_rate, rs, rs_ticked, prof_pct,
        (unsigned long long)cycles);
    std::fclose(f);
    return 0;
}
