/**
 * @file
 * Host-side microbenchmarks (google-benchmark) of the transfer-scheme
 * models and the cycle-accurate DESC link. These measure simulator
 * throughput, not modeled hardware performance; they guard against
 * regressions in the hot path every experiment depends on.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "core/descscheme.hh"
#include "core/factory.hh"
#include "core/link.hh"

using namespace desc;
using encoding::SchemeConfig;
using encoding::SchemeKind;

namespace {

std::vector<BitVec>
makeBlocks(unsigned count)
{
    Rng rng(42);
    std::vector<BitVec> blocks;
    for (unsigned i = 0; i < count; i++) {
        BitVec b(kBlockBits);
        b.randomize(rng);
        // Zero half the words to resemble cache traffic.
        for (unsigned w = 0; w < 4; w++)
            b.setField(w * 128, 64, 0);
        blocks.push_back(b);
    }
    return blocks;
}

void
schemeThroughput(benchmark::State &state, SchemeKind kind)
{
    SchemeConfig cfg;
    cfg.bus_wires = kind == SchemeKind::Binary ? 64 : 128;
    cfg.segment_bits = 16;
    cfg.chunk_bits = 4;
    auto scheme = core::makeScheme(kind, cfg);
    auto blocks = makeBlocks(64);
    std::size_t i = 0;
    for (auto _ : state) {
        auto r = scheme->transfer(blocks[i++ & 63]);
        benchmark::DoNotOptimize(r.data_flips);
    }
    state.SetItemsProcessed(state.iterations());
}

} // namespace

BENCHMARK_CAPTURE(schemeThroughput, binary, SchemeKind::Binary);
BENCHMARK_CAPTURE(schemeThroughput, bus_invert, SchemeKind::BusInvert);
BENCHMARK_CAPTURE(schemeThroughput, zs_bic, SchemeKind::ZeroSkipBusInvert);
BENCHMARK_CAPTURE(schemeThroughput, ezs_bic,
                  SchemeKind::EncodedZeroSkipBusInvert);
BENCHMARK_CAPTURE(schemeThroughput, dzc,
                  SchemeKind::DynamicZeroCompression);
BENCHMARK_CAPTURE(schemeThroughput, desc_zero_skip,
                  SchemeKind::DescZeroSkip);
BENCHMARK_CAPTURE(schemeThroughput, desc_last_value,
                  SchemeKind::DescLastValueSkip);

static void
cycleAccurateLink(benchmark::State &state)
{
    core::DescConfig cfg;
    cfg.bus_wires = 128;
    cfg.chunk_bits = 4;
    cfg.skip = core::SkipMode::Zero;
    core::DescLink link(cfg);
    auto blocks = makeBlocks(64);
    std::size_t i = 0;
    for (auto _ : state) {
        auto r = link.transferBlock(blocks[i++ & 63]);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(cycleAccurateLink);

BENCHMARK_MAIN();
