/**
 * @file
 * Quickstart: the public API in one file.
 *
 * 1. Move a cache block over a cycle-accurate DESC link and see the
 *    transition counts next to conventional binary signaling.
 * 2. Run the Niagara-like multicore on a workload model with binary
 *    vs zero-skipped DESC at the L2, and compare energy and time.
 *
 * Build and run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "common/rng.hh"
#include "core/descscheme.hh"
#include "core/link.hh"
#include "encoding/binary.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"

using namespace desc;

int
main()
{
    // --- Part 1: one block over one link -----------------------------
    Rng rng(7);
    BitVec block = makeBlock();
    block.randomize(rng);
    // Make it look like cache data: zero out half the words.
    for (unsigned w = 0; w < 4; w++)
        block.setField(w * 128, 64, 0);

    core::DescConfig dcfg;
    dcfg.bus_wires = 128;
    dcfg.chunk_bits = 4;
    dcfg.skip = core::SkipMode::Zero;
    core::DescLink link(dcfg);

    BitVec received;
    auto desc_xfer = link.transferBlock(block, &received);
    std::printf("DESC link:   %llu data flips, %llu control flips, "
                "%llu cycles, round-trip %s\n",
                (unsigned long long)desc_xfer.data_flips,
                (unsigned long long)desc_xfer.control_flips,
                (unsigned long long)desc_xfer.cycles,
                received == block ? "OK" : "CORRUPT");

    encoding::SchemeConfig bcfg;
    bcfg.bus_wires = 64;
    encoding::BinaryScheme binary(bcfg);
    auto bin_xfer = binary.transfer(block);
    std::printf("Binary bus:  %llu data flips, %llu cycles\n\n",
                (unsigned long long)bin_xfer.data_flips,
                (unsigned long long)bin_xfer.cycles);

    // --- Part 2: whole-system comparison ------------------------------
    const auto &app = workloads::findApp("FFT");

    sim::SystemConfig base = sim::baselineConfig(app);
    base.insts_per_thread = 40'000;
    sim::SystemConfig with_desc = base;
    sim::applyScheme(with_desc, encoding::SchemeKind::DescZeroSkip);

    // Both points run in parallel on the shared worker pool.
    const auto runs = sim::globalRunner().run({base, with_desc});
    const sim::AppRun &binary_run = runs[0];
    const sim::AppRun &desc_run = runs[1];

    std::printf("FFT on the 8-core machine (8MB L2, LSTP devices):\n");
    std::printf("  %-18s %12s %14s %14s\n", "scheme", "cycles",
                "L2 energy (uJ)", "CPU energy (uJ)");
    auto report = [](const char *name, const sim::AppRun &r) {
        std::printf("  %-18s %12llu %14.2f %14.2f\n", name,
                    (unsigned long long)r.result.cycles,
                    r.l2.total() * 1e6, r.processor.total() * 1e6);
    };
    report("binary", binary_run);
    report("zero-skip DESC", desc_run);

    std::printf("\n  L2 energy reduction: %.2fx   "
                "exec-time overhead: %.1f%%\n",
                binary_run.l2.total() / desc_run.l2.total(),
                100.0 * (double(desc_run.result.cycles)
                         / double(binary_run.result.cycles) - 1.0));
    return 0;
}
