/**
 * @file
 * Full-system differential sweep over the encoder engines.
 *
 * The batched encoder passes (DESC_ENCODER_MODE) claim bit-identical
 * results to the scalar reference walk. This suite pins that claim
 * end to end: over randomized system configurations, the batched
 * engine must produce identical SimResults, byte-identical stats
 * sidecars, and byte-identical run-cache entries.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <unistd.h>
#include <vector>

#include "common/rng.hh"
#include "encoding/scheme.hh"
#include "sim/runcache.hh"
#include "sim/statdump.hh"
#include "sim/system.hh"

using namespace desc;
using namespace desc::sim;

namespace {

/** Force one encoder mode for the enclosing scope. */
struct ForcedEncoder
{
    explicit ForcedEncoder(encoding::EncoderMode mode)
    {
        encoding::setDefaultEncoderMode(mode);
    }

    ~ForcedEncoder() { encoding::setDefaultEncoderMode(std::nullopt); }
};

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
 * budget) draws from a fixed-seed generator, so the sweep walks a
 * different-but-reproducible slice of the space than the
 * hand-written system tests.
 */
std::vector<SystemConfig>
sweepConfigs()
{
    Rng rng(0x5eed5eedULL);
    const auto &apps = workloads::parallelApps();
    const encoding::SchemeKind schemes[] = {
        encoding::SchemeKind::DescZeroSkip,
        encoding::SchemeKind::DescLastValueSkip,
        encoding::SchemeKind::DescBasic,
    };
    std::vector<SystemConfig> cfgs;
    for (int i = 0; i < 3; i++) {
        auto cfg = baselineConfig(apps[rng.below(apps.size())]);
        cfg.insts_per_thread = 1000 + rng.below(1000);
        cfg.seed ^= rng.next();
        applyScheme(cfg, schemes[rng.below(std::size(schemes))]);
        cfgs.push_back(cfg);
    }
    // One OoO point: the single-thread core drives a different access
    // mix through the hierarchy.
    auto ooo = baselineConfig(workloads::findApp("sjeng"));
    ooo.cpu = CpuKind::OutOfOrder;
    ooo.threads_per_core = 1;
    ooo.insts_per_thread = 3000;
    applyScheme(ooo, encoding::SchemeKind::DescZeroSkip);
    cfgs.push_back(ooo);
    // The segment schemes' word passes, drawn after the points above
    // so those stay the same.
    const encoding::SchemeKind segment_schemes[] = {
        encoding::SchemeKind::BusInvert,
        encoding::SchemeKind::ZeroSkipBusInvert,
        encoding::SchemeKind::EncodedZeroSkipBusInvert,
        encoding::SchemeKind::DynamicZeroCompression,
    };
    for (auto kind : segment_schemes) {
        auto cfg = baselineConfig(apps[rng.below(apps.size())]);
        cfg.insts_per_thread = 1000 + rng.below(1000);
        cfg.seed ^= rng.next();
        applyScheme(cfg, kind);
        cfgs.push_back(cfg);
    }
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

} // namespace

TEST(ModeSweep, CrossProductMatchesReferenceByteExactly)
{
    for (const auto &cfg : sweepConfigs()) {
        std::optional<AppRun> ref, got;
        {
            ForcedEncoder forced(encoding::EncoderMode::Scalar);
            ref = runScaledApp(scaledConfig(cfg));
        }
        {
            ForcedEncoder forced(encoding::EncoderMode::Batched);
            got = runScaledApp(scaledConfig(cfg));
        }
        SCOPED_TRACE(std::string(cfg.app.name) + " / "
                     + encoding::schemeName(cfg.l2.scheme));
        const std::string ref_json = sidecarJson(cfg, *ref);
        const std::string ref_entry = cacheEntryBytes(cfg, *ref);
        ASSERT_FALSE(ref_json.empty());
        ASSERT_FALSE(ref_entry.empty());
        EXPECT_EQ(got->result.cycles, ref->result.cycles);
        EXPECT_EQ(got->result.instructions, ref->result.instructions);
        // The sidecar registry serializes every harvested statistic
        // (perf, l1/l2, link flips, chunk histogram, dram, energy), so
        // byte-identical JSON pins them all at full precision in one
        // comparison.
        EXPECT_EQ(sidecarJson(cfg, *got), ref_json);
        EXPECT_EQ(cacheEntryBytes(cfg, *got), ref_entry);
    }
}
