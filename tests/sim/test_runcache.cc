/**
 * @file
 * Unit tests for the on-disk experiment result cache: config hashing,
 * AppRun serialization round-trips, and miss handling for absent,
 * corrupt, and disabled caches.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>
#include <unistd.h>

#include "sim/runcache.hh"
#include "sim/runner.hh"

using namespace desc;
using namespace desc::sim;

namespace {

SystemConfig
tinyConfig(const char *app = "FFT")
{
    SystemConfig cfg = baselineConfig(workloads::findApp(app));
    cfg.cores = 2;
    cfg.threads_per_core = 2;
    cfg.insts_per_thread = 1000;
    return cfg;
}

/** A fresh private cache directory, removed on destruction. */
struct TempCacheDir
{
    std::string dir;

    TempCacheDir()
    {
        static int counter = 0;
        dir = (std::filesystem::temp_directory_path()
               / ("desc-runcache-test-" + std::to_string(getpid())
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

void
expectSameRun(const AppRun &a, const AppRun &b)
{
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_DOUBLE_EQ(a.result.seconds, b.result.seconds);

    const auto &ha = a.result.hierarchy, &hb = b.result.hierarchy;
    EXPECT_EQ(ha.l1d_accesses.value(), hb.l1d_accesses.value());
    EXPECT_EQ(ha.l1d_misses.value(), hb.l1d_misses.value());
    EXPECT_EQ(ha.l2_requests.value(), hb.l2_requests.value());
    EXPECT_EQ(ha.l2_hits.value(), hb.l2_hits.value());
    EXPECT_EQ(ha.read_transfers.value(), hb.read_transfers.value());
    EXPECT_EQ(ha.write_transfers.value(), hb.write_transfers.value());
    EXPECT_DOUBLE_EQ(ha.data_flips, hb.data_flips);
    EXPECT_DOUBLE_EQ(ha.ctrl_flips, hb.ctrl_flips);
    EXPECT_EQ(ha.bank_busy_cycles, hb.bank_busy_cycles);
    EXPECT_DOUBLE_EQ(ha.hit_latency.mean(), hb.hit_latency.mean());
    EXPECT_EQ(ha.hit_latency.count(), hb.hit_latency.count());
    EXPECT_DOUBLE_EQ(ha.transfer_window.mean(),
                     hb.transfer_window.mean());

    EXPECT_EQ(a.result.chunks.totalChunks(),
              b.result.chunks.totalChunks());
    EXPECT_DOUBLE_EQ(a.result.chunks.zeroFraction(),
                     b.result.chunks.zeroFraction());
    EXPECT_DOUBLE_EQ(a.result.chunks.lastValueMatchFraction(),
                     b.result.chunks.lastValueMatchFraction());

    EXPECT_EQ(a.result.dram_reads, b.result.dram_reads);
    EXPECT_EQ(a.result.dram_writes, b.result.dram_writes);

    EXPECT_DOUBLE_EQ(a.l2.htree_dynamic, b.l2.htree_dynamic);
    EXPECT_DOUBLE_EQ(a.l2.array_dynamic, b.l2.array_dynamic);
    EXPECT_DOUBLE_EQ(a.l2.aux_dynamic, b.l2.aux_dynamic);
    EXPECT_DOUBLE_EQ(a.l2.static_energy, b.l2.static_energy);
    EXPECT_DOUBLE_EQ(a.processor.total(), b.processor.total());
}

} // namespace

TEST(ConfigHash, StableForIdenticalConfigs)
{
    EXPECT_EQ(configHash(tinyConfig()), configHash(tinyConfig()));
}

TEST(ConfigHash, SensitiveToEveryResultRelevantKnob)
{
    auto base = configHash(tinyConfig());

    auto cfg = tinyConfig();
    cfg.seed ^= 1;
    EXPECT_NE(configHash(cfg), base);

    cfg = tinyConfig();
    cfg.insts_per_thread++;
    EXPECT_NE(configHash(cfg), base);

    cfg = tinyConfig();
    applyScheme(cfg, encoding::SchemeKind::DescZeroSkip);
    EXPECT_NE(configHash(cfg), base);

    cfg = tinyConfig();
    cfg.l2.scheme_cfg.chunk_bits = 2;
    EXPECT_NE(configHash(cfg), base);

    cfg = tinyConfig();
    cfg.l2.org.capacity_bytes *= 2;
    EXPECT_NE(configHash(cfg), base);

    cfg = tinyConfig();
    cfg.l2.ecc = true;
    EXPECT_NE(configHash(cfg), base);

    EXPECT_NE(configHash(tinyConfig("LU")), base);
}

TEST(RunCache, StoreLoadRoundTrips)
{
    TempCacheDir tmp;
    RunCache cache(tmp.dir);
    ASSERT_TRUE(cache.enabled());

    auto cfg = scaledConfig(tinyConfig());
    cfg.l2.collect_chunk_stats = true; // exercise ChunkStats fields
    AppRun run = runScaledApp(cfg);

    auto key = configHash(cfg);
    EXPECT_FALSE(cache.load(key).has_value());
    cache.store(key, run);

    auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    expectSameRun(*loaded, run);
}

TEST(RunCache, EntryFromAnotherModelIsAMiss)
{
    // A cached AppRun must never outlive the model that produced it:
    // the entry key carries the model fingerprint.
    TempCacheDir tmp;
    const std::uint64_t old_model = 0x1111111111111111ULL;
    const std::uint64_t new_model = 0x2222222222222222ULL;
    RunCache old_cache(tmp.dir, old_model);
    RunCache new_cache(tmp.dir, new_model);

    auto cfg = scaledConfig(tinyConfig());
    auto key = configHash(cfg);
    old_cache.store(key, runScaledApp(cfg));
    ASSERT_TRUE(old_cache.load(key).has_value());
    EXPECT_FALSE(new_cache.load(key).has_value());

    // The header carries the fingerprint too: an entry renamed to the
    // other model's file name is still a miss there.
    std::vector<std::filesystem::path> entries;
    for (const auto &e : std::filesystem::directory_iterator(tmp.dir))
        entries.push_back(e.path());
    ASSERT_EQ(entries.size(), 1u);
    char name[48];
    std::snprintf(name, sizeof(name), "%016llx-%016llx.run",
                  (unsigned long long)key, (unsigned long long)new_model);
    std::filesystem::rename(entries[0],
                            std::filesystem::path(tmp.dir) / name);
    EXPECT_FALSE(new_cache.load(key).has_value());
    EXPECT_FALSE(old_cache.load(key).has_value());
}

TEST(RunCache, DefaultCacheUsesThisBuildsModelFingerprint)
{
    EXPECT_NE(modelFingerprint(), 0u);
    TempCacheDir tmp;
    auto cfg = scaledConfig(tinyConfig());
    auto key = configHash(cfg);
    RunCache(tmp.dir).store(key, runScaledApp(cfg));
    EXPECT_TRUE(RunCache(tmp.dir, modelFingerprint()).load(key));
    EXPECT_FALSE(RunCache(tmp.dir, ~modelFingerprint()).load(key));
}

TEST(RunCache, CorruptEntryIsAMiss)
{
    TempCacheDir tmp;
    RunCache cache(tmp.dir);

    auto cfg = scaledConfig(tinyConfig());
    auto key = configHash(cfg);
    cache.store(key, runScaledApp(cfg));
    ASSERT_TRUE(cache.load(key).has_value());

    // Clobber every entry in the directory with garbage.
    for (const auto &e :
         std::filesystem::directory_iterator(tmp.dir)) {
        std::ofstream out(e.path(),
                          std::ios::binary | std::ios::trunc);
        out << "not a run cache entry";
    }
    EXPECT_FALSE(cache.load(key).has_value());
}

TEST(RunCache, EntryWithMisSizedHistogramIsAMiss)
{
    // A well-formed entry whose chunk histogram has 2 bins for 4-bit
    // chunks: loading it as a hit would hand out ChunkStats whose
    // valueFraction(7) reads past the histogram.
    TempCacheDir tmp;
    RunCache cache(tmp.dir);

    auto cfg = scaledConfig(tinyConfig());
    cfg.l2.collect_chunk_stats = true;
    auto key = configHash(cfg);
    cache.store(key, runScaledApp(cfg));
    ASSERT_TRUE(cache.load(key).has_value());

    auto u64s = [](std::initializer_list<std::uint64_t> vals) {
        std::string bytes;
        for (std::uint64_t v : vals) {
            for (int i = 0; i < 8; i++)
                bytes.push_back(char(std::uint8_t(v >> (8 * i))));
        }
        return bytes;
    };
    for (const auto &e : std::filesystem::directory_iterator(tmp.dir)) {
        std::string bytes;
        {
            std::ifstream in(e.path(), std::ios::binary);
            bytes.assign(std::istreambuf_iterator<char>(in), {});
        }
        // (chunk bits, wires, bin count), then the 16 bins: keep two.
        const std::string head = u64s({4, 128, 16});
        const auto pos = bytes.find(head);
        ASSERT_NE(pos, std::string::npos);
        const std::size_t bins = pos + head.size();
        bytes = bytes.substr(0, pos) + u64s({4, 128, 2})
            + bytes.substr(bins, 2 * 8) + bytes.substr(bins + 16 * 8);
        std::ofstream out(e.path(), std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    EXPECT_FALSE(cache.load(key).has_value());
}

TEST(RunCache, TruncatedEntryIsAMiss)
{
    TempCacheDir tmp;
    RunCache cache(tmp.dir);

    auto cfg = scaledConfig(tinyConfig());
    auto key = configHash(cfg);
    cache.store(key, runScaledApp(cfg));

    for (const auto &e :
         std::filesystem::directory_iterator(tmp.dir))
        std::filesystem::resize_file(e.path(), 40);
    EXPECT_FALSE(cache.load(key).has_value());
}

TEST(RunCache, DisabledCacheLoadsNothing)
{
    RunCache cache("");
    EXPECT_FALSE(cache.enabled());

    auto cfg = scaledConfig(tinyConfig());
    auto key = configHash(cfg);
    cache.store(key, runScaledApp(cfg)); // must be a no-op
    EXPECT_FALSE(cache.load(key).has_value());
}

TEST(RunCache, RunAppMemoizesThroughTheGlobalCache)
{
    TempCacheDir tmp;
    setGlobalRunCacheDir(tmp.dir);

    auto cfg = tinyConfig("Barnes");
    auto before = runStats();
    AppRun first = runApp(cfg);
    auto mid = runStats();
    EXPECT_EQ(mid.simulated.value() - before.simulated.value(), 1u);
    EXPECT_EQ(mid.cache_stores.value() - before.cache_stores.value(),
              1u);

    AppRun second = runApp(cfg);
    auto after = runStats();
    EXPECT_EQ(after.simulated.value() - mid.simulated.value(), 0u);
    EXPECT_EQ(after.cache_hits.value() - mid.cache_hits.value(), 1u);
    expectSameRun(first, second);

    setGlobalRunCacheDir("");
}
