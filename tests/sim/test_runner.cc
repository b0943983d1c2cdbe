/**
 * @file
 * Integration tests for the parallel experiment runner: a parallel
 * batch is bit-identical to a serial one, submission order is
 * preserved, and a warm result cache serves a whole batch without
 * executing a single simulation (the cache-hit counter acceptance
 * check).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "sim/runcache.hh"
#include "sim/runner.hh"

using namespace desc;
using namespace desc::sim;

namespace {

SystemConfig
tinyConfig(const char *app, std::uint64_t insts = 1000)
{
    SystemConfig cfg = baselineConfig(workloads::findApp(app));
    cfg.cores = 2;
    cfg.threads_per_core = 2;
    cfg.insts_per_thread = insts;
    return cfg;
}

/** A varied little batch: different apps, schemes, and budgets. */
std::vector<SystemConfig>
smallBatch()
{
    std::vector<SystemConfig> cfgs;
    cfgs.push_back(tinyConfig("FFT"));
    auto desc_cfg = tinyConfig("LU");
    applyScheme(desc_cfg, encoding::SchemeKind::DescZeroSkip);
    cfgs.push_back(desc_cfg);
    cfgs.push_back(tinyConfig("Barnes", 2000));
    auto bic = tinyConfig("Radix");
    applyScheme(bic, encoding::SchemeKind::BusInvert);
    cfgs.push_back(bic);
    return cfgs;
}

struct TempCacheDir
{
    std::string dir;

    TempCacheDir()
    {
        static int counter = 0;
        dir = (std::filesystem::temp_directory_path()
               / ("desc-runner-test-" + std::to_string(getpid())
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

/** Uncached global state for tests that count simulations. */
struct NoCache
{
    NoCache() { setGlobalRunCacheDir(""); }
    ~NoCache() { setGlobalRunCacheDir(""); }
};

void
expectBitIdentical(const AppRun &a, const AppRun &b)
{
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.seconds, b.result.seconds);
    EXPECT_EQ(a.result.hierarchy.data_flips,
              b.result.hierarchy.data_flips);
    EXPECT_EQ(a.result.hierarchy.ctrl_flips,
              b.result.hierarchy.ctrl_flips);
    EXPECT_EQ(a.result.hierarchy.l2_requests.value(),
              b.result.hierarchy.l2_requests.value());
    EXPECT_EQ(a.result.hierarchy.hit_latency.mean(),
              b.result.hierarchy.hit_latency.mean());
    EXPECT_EQ(a.l2.total(), b.l2.total());
    EXPECT_EQ(a.processor.total(), b.processor.total());
}

} // namespace

TEST(Runner, DefaultJobsIsPositive)
{
    EXPECT_GE(Runner::defaultJobs(), 1u);
}

namespace {

/** Sets DESC_SIM_JOBS for one test and restores it afterwards. */
struct JobsEnvGuard
{
    std::string saved;
    bool was_set;

    explicit JobsEnvGuard(const char *value)
    {
        const char *old = getenv("DESC_SIM_JOBS");
        was_set = old != nullptr;
        if (was_set)
            saved = old;
        if (value)
            setenv("DESC_SIM_JOBS", value, 1);
        else
            unsetenv("DESC_SIM_JOBS");
    }

    ~JobsEnvGuard()
    {
        if (was_set)
            setenv("DESC_SIM_JOBS", saved.c_str(), 1);
        else
            unsetenv("DESC_SIM_JOBS");
    }
};

} // namespace

TEST(Runner, JobsEnvValidValueIsHonored)
{
    JobsEnvGuard env("3");
    EXPECT_EQ(Runner::defaultJobs(), 3u);
}

TEST(Runner, JobsEnvRejectsZeroNegativeAndGarbage)
{
    // Every malformed value falls back to the hardware default; the
    // parser must not crash, wrap a negative into a huge count, or
    // accept trailing junk.
    unsigned fallback;
    {
        JobsEnvGuard env(nullptr);
        fallback = Runner::defaultJobs();
    }
    for (const char *bad :
         {"0", "-1", "-4096", "banana", "3banana", "", " ",
          "99999999999999999999", "4097", "0x10"}) {
        JobsEnvGuard env(bad);
        EXPECT_EQ(Runner::defaultJobs(), fallback)
            << "DESC_SIM_JOBS=\"" << bad << '"';
    }
}

TEST(Runner, JobsEnvBoundaryValues)
{
    {
        JobsEnvGuard env("1");
        EXPECT_EQ(Runner::defaultJobs(), 1u);
    }
    {
        JobsEnvGuard env("4096");
        EXPECT_EQ(Runner::defaultJobs(), 4096u);
    }
}

TEST(Runner, ParallelBatchMatchesSerialBitForBit)
{
    NoCache nc;
    auto cfgs = smallBatch();

    Runner serial(1);
    Runner parallel(4);
    auto a = serial.run(cfgs);
    auto b = parallel.run(cfgs);

    ASSERT_EQ(a.size(), cfgs.size());
    ASSERT_EQ(b.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); i++)
        expectBitIdentical(a[i], b[i]);
}

TEST(Runner, PreservesSubmissionOrder)
{
    NoCache nc;
    auto cfgs = smallBatch();

    Runner runner(3);
    auto runs = runner.run(cfgs);

    // Each slot must hold its own config's result: instruction counts
    // identify the budget, serial runApp identifies everything else.
    for (std::size_t i = 0; i < cfgs.size(); i++) {
        EXPECT_EQ(runs[i].result.instructions,
                  cfgs[i].cores * cfgs[i].threads_per_core
                      * cfgs[i].insts_per_thread)
            << "slot " << i;
        expectBitIdentical(runs[i], runApp(cfgs[i]));
    }
}

namespace {

/** A figure-shaped batch in the harnesses' own order: Figure 28's
 *  four SECDED (W, S) points on two apps, then a Figure 30
 *  out-of-order binary/ZS-DESC pair. Budgets are cut for test time. */
std::vector<SystemConfig>
figureBatch()
{
    using encoding::SchemeKind;
    struct Ecc
    {
        SchemeKind kind;
        unsigned wires, segment;
    };
    const Ecc eccs[] = {{SchemeKind::Binary, 64, 64},
                        {SchemeKind::Binary, 128, 128},
                        {SchemeKind::DescZeroSkip, 128, 64},
                        {SchemeKind::DescZeroSkip, 128, 128}};
    std::vector<SystemConfig> cfgs;
    for (const Ecc &e : eccs) {
        for (const char *app : {"FFT", "Ocean"}) {
            auto cfg = tinyConfig(app);
            applyScheme(cfg, e.kind);
            cfg.l2.org.bus_wires = e.wires;
            cfg.l2.scheme_cfg.bus_wires = e.wires;
            cfg.l2.ecc = true;
            cfg.l2.ecc_segment_bits = e.segment;
            cfgs.push_back(cfg);
        }
    }
    auto ooo = baselineConfig(workloads::specApps().front());
    ooo.cpu = CpuKind::OutOfOrder;
    ooo.threads_per_core = 1;
    ooo.insts_per_thread = 4000;
    cfgs.push_back(ooo);
    applyScheme(ooo, SchemeKind::DescZeroSkip);
    cfgs.push_back(ooo);
    return cfgs;
}

/** The run-cache serialization of @p run: it carries every AppRun
 *  field, so equal bytes mean equal runs. */
std::string
entryBytes(const AppRun &run)
{
    TempCacheDir tmp;
    RunCache(tmp.dir).store(0, run);
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

TEST(Runner, FigureBatchIsIdenticalAcrossJobCounts)
{
    NoCache nc;
    const auto cfgs = figureBatch();

    Runner serial(1);
    Runner parallel(4);
    const auto a = serial.run(cfgs);
    const auto b = parallel.run(cfgs);

    ASSERT_EQ(a.size(), cfgs.size());
    ASSERT_EQ(b.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); i++) {
        SCOPED_TRACE(i);
        expectBitIdentical(a[i], b[i]);
        const std::string bytes = entryBytes(a[i]);
        EXPECT_FALSE(bytes.empty());
        EXPECT_EQ(bytes, entryBytes(b[i]));
    }
    // The batch really exercised the codec and the OoO core.
    EXPECT_GT(a.front().result.hierarchy.read_transfers.value(), 0u);
    EXPECT_EQ(a.back().result.instructions, 4000u);
}

TEST(Runner, EmptyBatchReturnsEmpty)
{
    Runner runner(2);
    EXPECT_TRUE(runner.run({}).empty());
}

TEST(Runner, WarmCacheExecutesZeroSimulations)
{
    TempCacheDir tmp;
    setGlobalRunCacheDir(tmp.dir);
    auto cfgs = smallBatch();

    Runner runner(4);
    auto before = runStats();
    auto cold = runner.run(cfgs);
    auto mid = runStats();
    EXPECT_EQ(mid.simulated.value() - before.simulated.value(),
              cfgs.size());
    EXPECT_EQ(mid.cache_stores.value() - before.cache_stores.value(),
              cfgs.size());

    // Warm re-run: every point must come from the cache.
    auto warm = runner.run(cfgs);
    auto after = runStats();
    EXPECT_EQ(after.simulated.value() - mid.simulated.value(), 0u);
    EXPECT_EQ(after.cache_hits.value() - mid.cache_hits.value(),
              cfgs.size());

    for (std::size_t i = 0; i < cfgs.size(); i++)
        expectBitIdentical(cold[i], warm[i]);

    setGlobalRunCacheDir("");
}

TEST(Runner, CacheIsSharedAcrossJobCounts)
{
    TempCacheDir tmp;
    setGlobalRunCacheDir(tmp.dir);
    auto cfgs = smallBatch();

    Runner wide(4);
    auto cold = wide.run(cfgs);

    Runner narrow(1);
    auto before = runStats();
    auto warm = narrow.run(cfgs);
    auto after = runStats();
    EXPECT_EQ(after.simulated.value() - before.simulated.value(), 0u);

    for (std::size_t i = 0; i < cfgs.size(); i++)
        expectBitIdentical(cold[i], warm[i]);

    setGlobalRunCacheDir("");
}

TEST(Runner, SummaryLineMentionsActivity)
{
    NoCache nc;
    Runner runner(2);
    runner.run({tinyConfig("FFT")});
    auto line = runSummaryLine();
    EXPECT_NE(line.find("[runner]"), std::string::npos);
    EXPECT_NE(line.find("simulated"), std::string::npos);
    EXPECT_NE(line.find("cached"), std::string::npos);
}
