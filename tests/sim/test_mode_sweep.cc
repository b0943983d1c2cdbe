/**
 * @file
 * Full-system differential sweep over the encoder engines.
 *
 * The segment schemes (bus invert, DZC) pick their word pass from
 * their geometry at construction, and every word pass claims
 * bit-identical results to its scalar reference walk. This suite
 * pins that claim end to end: runs built
 * under the setReferenceEncoders() hook must match the default runs
 * in SimResults, byte for byte in stats sidecars, and byte for byte
 * in run-cache entries, over randomized system configurations and
 * over the fig15 and fig16 scheme grids.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <unistd.h>
#include <vector>

#include "benchutil.hh"
#include "common/rng.hh"
#include "core/factory.hh"
#include "encoding/scheme.hh"
#include "sim/runcache.hh"
#include "sim/statdump.hh"
#include "sim/system.hh"

#include "../encoding/differential.hh"

using namespace desc;
using namespace desc::sim;

namespace {

using encoding::difftest::ReferenceEncoders;

/** A fresh private cache directory, removed on destruction. */
struct TempCacheDir
{
    std::string dir;

    TempCacheDir()
    {
        static int counter = 0;
        dir = (std::filesystem::temp_directory_path()
               / ("desc-modesweep-test-" + std::to_string(getpid())
                  + "-" + std::to_string(counter++)))
                  .string();
        std::filesystem::create_directories(dir);
    }

    ~TempCacheDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
};

/**
 * Randomized configurations: a handful of (app, scheme, seed,
 * budget) draws from a fixed-seed generator over the schemes the
 * hook reaches (the bus-invert family and DZC; DescScheme has one
 * engine, pinned against the ticked link by DescFigureStreams), so
 * the sweep walks a different-but-reproducible slice of the space
 * than the hand-written system tests.
 */
std::vector<SystemConfig>
sweepConfigs()
{
    Rng rng(0x5eed5eedULL);
    const auto &apps = workloads::parallelApps();
    const encoding::SchemeKind segment_schemes[] = {
        encoding::SchemeKind::BusInvert,
        encoding::SchemeKind::ZeroSkipBusInvert,
        encoding::SchemeKind::EncodedZeroSkipBusInvert,
        encoding::SchemeKind::DynamicZeroCompression,
    };
    std::vector<SystemConfig> cfgs;
    for (auto kind : segment_schemes) {
        auto cfg = baselineConfig(apps[rng.below(apps.size())]);
        cfg.insts_per_thread = 1000 + rng.below(1000);
        cfg.seed ^= rng.next();
        applyScheme(cfg, kind);
        cfgs.push_back(cfg);
    }
    // One OoO point: the single-thread core drives a different access
    // mix through the hierarchy.
    auto ooo = baselineConfig(workloads::findApp("sjeng"));
    ooo.cpu = CpuKind::OutOfOrder;
    ooo.threads_per_core = 1;
    ooo.insts_per_thread = 3000;
    applyScheme(ooo, encoding::SchemeKind::ZeroSkipBusInvert);
    cfgs.push_back(ooo);
    return cfgs;
}

/** The sidecar registry JSON for one finished run. */
std::string
sidecarJson(const SystemConfig &cfg, const AppRun &run)
{
    auto reg = buildRunRegistry(cfg, run, configHash(cfg));
    std::ostringstream os;
    writeRegistryJson(os, reg);
    return os.str();
}

/** The serialized run-cache entry bytes for one finished run. */
std::string
cacheEntryBytes(const SystemConfig &cfg, const AppRun &run)
{
    TempCacheDir tmp;
    RunCache cache(tmp.dir);
    cache.store(configHash(cfg), run);
    for (const auto &entry :
         std::filesystem::directory_iterator(tmp.dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        return bytes.str();
    }
    ADD_FAILURE() << "run cache stored no entry";
    return {};
}

/** Whether the L2 link scheme built for @p cfg takes a word pass. */
bool
linkUsesWordPass(const SystemConfig &cfg)
{
    return core::makeScheme(cfg.l2.scheme, cfg.l2.effectiveSchemeConfig())
        ->usesWordPass();
}

/**
 * Run @p cfg once under the reference hook and once by default, and
 * require identical results, byte-identical stats sidecars and
 * byte-identical run-cache entries. The hook must put the link scheme
 * on its scalar walk; a scheme that ignored it would make the two
 * runs the same engine and the comparison vacuous.
 */
void
expectMatchesReference(const SystemConfig &cfg)
{
    SCOPED_TRACE(std::string(cfg.app.name) + " / "
                 + encoding::schemeName(cfg.l2.scheme) + " / "
                 + std::to_string(cfg.l2.scheme_cfg.segment_bits)
                 + "-bit segments");
    std::optional<AppRun> ref;
    {
        ReferenceEncoders on;
        ASSERT_FALSE(linkUsesWordPass(cfg));
        ref = runScaledApp(scaledConfig(cfg));
    }
    const AppRun got = runScaledApp(scaledConfig(cfg));
    const std::string ref_json = sidecarJson(cfg, *ref);
    const std::string ref_entry = cacheEntryBytes(cfg, *ref);
    ASSERT_FALSE(ref_json.empty());
    ASSERT_FALSE(ref_entry.empty());
    EXPECT_EQ(got.result.cycles, ref->result.cycles);
    EXPECT_EQ(got.result.instructions, ref->result.instructions);
    // The sidecar registry serializes every harvested statistic
    // (perf, l1/l2, link flips, chunk histogram, dram, energy), so
    // byte-identical JSON pins them all at full precision in one
    // comparison.
    EXPECT_EQ(sidecarJson(cfg, got), ref_json);
    EXPECT_EQ(cacheEntryBytes(cfg, got), ref_entry);
}

} // namespace

TEST(ModeSweep, CrossProductMatchesReferenceByteExactly)
{
    for (const auto &cfg : sweepConfigs())
        expectMatchesReference(cfg);
}

/**
 * The figures that exercise every segment word pass: fig15's grid
 * (DZC, BIC, ZS-BIC and EZS-BIC at every segment width it sweeps)
 * and fig16's schemes other than DESC, on two of the sweep apps at a
 * small budget. Every fig15 point meets the word-pass gate, so each
 * one compares the word pass against the reference walk.
 */
TEST(ModeSweep, FigureGridsMatchReference)
{
    const auto apps = bench::sweepApps();
    ASSERT_GE(apps.size(), 2u);
    const workloads::AppParams picked[] = {apps.front(), apps.back()};
    const encoding::SchemeKind fig15_schemes[] = {
        encoding::SchemeKind::DynamicZeroCompression,
        encoding::SchemeKind::BusInvert,
        encoding::SchemeKind::ZeroSkipBusInvert,
        encoding::SchemeKind::EncodedZeroSkipBusInvert,
    };
    for (const auto &app : picked) {
        for (auto kind : fig15_schemes) {
            for (unsigned seg : {64u, 32u, 16u, 8u, 4u}) {
                auto cfg = baselineConfig(app);
                cfg.insts_per_thread = 1000;
                applyScheme(cfg, kind);
                cfg.l2.scheme_cfg.segment_bits = seg;
                EXPECT_TRUE(linkUsesWordPass(cfg));
                expectMatchesReference(cfg);
            }
        }
        for (unsigned s = 0; s < encoding::kNumSchemes; s++) {
            auto cfg = baselineConfig(app);
            cfg.insts_per_thread = 1000;
            applyScheme(cfg, core::allSchemeKinds()[s]);
            if (cfg.l2.isDesc())
                continue;
            expectMatchesReference(cfg);
        }
    }
}
