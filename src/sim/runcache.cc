#include "sim/runcache.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "common/log.hh"
#include "common/prof.hh"
#include "common/trace.hh"
#include "sim/statdump.hh"

// DESC_MODEL_FINGERPRINT, generated by src/CMakeLists.txt.
#include "model_fingerprint.hh"

namespace desc::sim {

namespace {

/** Bumped whenever the hash input changes; stale entries then key
 *  differently and are never loaded. It is part of configHash(), so
 *  an entry layout change bumps kMagic instead and leaves the config
 *  hashes (and everything keyed on them) as they were. */
constexpr std::uint32_t kFormatVersion = 1;

/** Entry file magic: the entry layout. Layout 2 ("DESCRUN2") stores
 *  the model fingerprint after the key. */
constexpr std::uint64_t kMagic = 0x4445534352554e32ULL; // "DESCRUN2"

// --- canonical byte stream ---------------------------------------

/** Append-only little-endian byte stream used for both hashing and
 *  serialization, so the two can never disagree on field order. */
class Writer
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; i++)
            _buf.push_back(char((v >> (8 * i)) & 0xff));
    }

    void u32(std::uint32_t v) { u64(v); }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const char *s)
    {
        std::size_t n = s ? std::strlen(s) : 0;
        u64(n);
        _buf.insert(_buf.end(), s, s + n);
    }

    const std::string &bytes() const { return _buf; }

  private:
    std::string _buf;
};

class Reader
{
  public:
    explicit Reader(std::string bytes) : _buf(std::move(bytes)) {}

    std::uint64_t
    u64()
    {
        if (_pos + 8 > _buf.size()) {
            _ok = false;
            return 0;
        }
        std::uint64_t v = 0;
        for (int i = 0; i < 8; i++)
            v |= std::uint64_t(std::uint8_t(_buf[_pos + i])) << (8 * i);
        _pos += 8;
        return v;
    }

    std::uint32_t u32() { return std::uint32_t(u64()); }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    bool ok() const { return _ok; }
    void fail() { _ok = false; }
    bool atEnd() const { return _ok && _pos == _buf.size(); }

  private:
    std::string _buf;
    std::size_t _pos = 0;
    bool _ok = true;
};

// --- configuration canonicalization ------------------------------

void
putConfig(Writer &w, const SystemConfig &cfg)
{
    w.u32(kFormatVersion);

    w.u64(std::uint64_t(cfg.cpu));
    w.u64(cfg.cores);
    w.u64(cfg.threads_per_core);

    const auto &org = cfg.l2.org;
    w.u64(org.capacity_bytes);
    w.u64(org.assoc);
    w.u64(org.block_bytes);
    w.u64(org.banks);
    w.u64(org.bus_wires);
    w.f64(org.clock_ghz);
    w.u64(org.low_swing);
    w.f64(org.swing_v);
    w.u64(std::uint64_t(org.cell_dev));
    w.u64(std::uint64_t(org.periph_dev));

    w.u64(std::uint64_t(cfg.l2.scheme));
    const auto &sc = cfg.l2.scheme_cfg;
    w.u64(sc.bus_wires);
    w.u64(sc.block_bits);
    w.u64(sc.segment_bits);
    w.u64(sc.chunk_bits);

    w.u64(cfg.l2.snuca);
    w.u64(cfg.l2.snuca_min_latency);
    w.u64(cfg.l2.snuca_max_latency);
    w.u64(cfg.l2.ctrl_latency);
    w.u64(cfg.l2.desc_interface_delay);
    w.u64(cfg.l2.recall_latency);
    w.u64(cfg.l2.ecc);
    w.u64(cfg.l2.ecc_segment_bits);
    w.u64(cfg.l2.collect_chunk_stats);

    w.u64(cfg.l1.capacity_bytes);
    w.u64(cfg.l1.assoc_d);
    w.u64(cfg.l1.assoc_i);
    w.u64(cfg.l1.block_bytes);
    w.u64(cfg.l1.hit_latency);

    w.u64(cfg.dram.channels);
    w.u64(cfg.dram.banks_per_channel);
    w.f64(cfg.dram.mem_ghz);
    w.f64(cfg.dram.core_ghz);
    w.u64(cfg.dram.tCL);
    w.u64(cfg.dram.tRCD);
    w.u64(cfg.dram.tRP);
    w.u64(cfg.dram.tBurst);
    w.u64(cfg.dram.max_overlap);

    w.u64(cfg.insts_per_thread);

    const auto &app = cfg.app;
    w.str(app.name);
    w.f64(app.mem_per_inst);
    w.f64(app.write_frac);
    w.u64(app.ws_private);
    w.u64(app.ws_shared);
    w.f64(app.shared_frac);
    w.f64(app.seq_frac);
    w.u64(app.code_bytes);
    w.f64(app.hot_frac);
    w.u64(app.hot_bytes);
    w.f64(app.zero_word);
    w.f64(app.small_word);
    w.f64(app.palette_word);
    w.u64(app.palette_size);
    w.f64(app.null_block);
    w.u64(app.seed_salt);

    w.u64(cfg.seed);
}

// --- result serialization ----------------------------------------

void
putAverage(Writer &w, const Average &a)
{
    w.f64(a.sum());
    w.f64(a.min());
    w.f64(a.max());
    w.u64(a.count());
}

Average
getAverage(Reader &r)
{
    Average a;
    double sum = r.f64();
    double min = r.f64();
    double max = r.f64();
    std::uint64_t count = r.u64();
    a.restore(sum, min, max, count);
    return a;
}

void
putCounter(Writer &w, const Counter &c)
{
    w.u64(c.value());
}

Counter
getCounter(Reader &r)
{
    Counter c;
    c.inc(r.u64());
    return c;
}

void
putHistogram(Writer &w, const Histogram &h)
{
    w.u64(h.numBins());
    for (unsigned i = 0; i < h.numBins(); i++)
        w.u64(h.bin(i));
    w.u64(h.total());
    w.u64(h.overflow());
}

/** A histogram of @p bins bins; any other bin count fails @p r. */
Histogram
getHistogram(Reader &r, std::uint64_t bins)
{
    if (r.u64() != bins) {
        r.fail();
        return Histogram{};
    }
    std::vector<std::uint64_t> counts(bins);
    for (auto &b : counts)
        b = r.u64();
    std::uint64_t total = r.u64();
    std::uint64_t overflow = r.u64();
    Histogram h{unsigned(bins)};
    h.restore(std::move(counts), total, overflow);
    return h;
}

void
putRun(Writer &w, const AppRun &run)
{
    const SimResult &res = run.result;
    w.u64(res.cycles);
    w.u64(res.instructions);
    w.f64(res.seconds);

    const auto &hs = res.hierarchy;
    putCounter(w, hs.l1i_accesses);
    putCounter(w, hs.l1i_misses);
    putCounter(w, hs.l1d_accesses);
    putCounter(w, hs.l1d_misses);
    putCounter(w, hs.upgrades);
    putCounter(w, hs.l2_requests);
    putCounter(w, hs.l2_hits);
    putCounter(w, hs.l2_misses);
    putCounter(w, hs.l2_writebacks_in);
    putCounter(w, hs.l2_fills);
    putCounter(w, hs.l2_evictions_out);
    putCounter(w, hs.recalls);
    putCounter(w, hs.read_transfers);
    putCounter(w, hs.write_transfers);
    w.f64(hs.data_flips);
    w.f64(hs.ctrl_flips);
    w.u64(hs.bank_busy_cycles);
    putAverage(w, hs.hit_latency);
    putAverage(w, hs.transfer_window);

    const auto &cs = res.chunks;
    w.u64(cs.chunkBits());
    w.u64(cs.wires());
    putHistogram(w, cs.histogram());
    w.u64(cs.matches());
    w.u64(cs.matchCandidates());

    w.u64(res.dram_reads);
    w.u64(res.dram_writes);

    w.f64(run.l2.htree_dynamic);
    w.f64(run.l2.array_dynamic);
    w.f64(run.l2.aux_dynamic);
    w.f64(run.l2.static_energy);

    w.f64(run.processor.core_dynamic);
    w.f64(run.processor.core_static);
    w.f64(run.processor.l1);
    w.f64(run.processor.uncore);
    w.f64(run.processor.l2);
}

std::optional<AppRun>
getRun(Reader &r)
{
    AppRun run;
    SimResult &res = run.result;
    res.cycles = r.u64();
    res.instructions = r.u64();
    res.seconds = r.f64();

    auto &hs = res.hierarchy;
    hs.l1i_accesses = getCounter(r);
    hs.l1i_misses = getCounter(r);
    hs.l1d_accesses = getCounter(r);
    hs.l1d_misses = getCounter(r);
    hs.upgrades = getCounter(r);
    hs.l2_requests = getCounter(r);
    hs.l2_hits = getCounter(r);
    hs.l2_misses = getCounter(r);
    hs.l2_writebacks_in = getCounter(r);
    hs.l2_fills = getCounter(r);
    hs.l2_evictions_out = getCounter(r);
    hs.recalls = getCounter(r);
    hs.read_transfers = getCounter(r);
    hs.write_transfers = getCounter(r);
    hs.data_flips = r.f64();
    hs.ctrl_flips = r.f64();
    hs.bank_busy_cycles = r.u64();
    hs.hit_latency = getAverage(r);
    hs.transfer_window = getAverage(r);

    unsigned chunk_bits = unsigned(r.u64());
    unsigned wires = unsigned(r.u64());
    if (!core::ChunkStats::fits(chunk_bits, wires))
        return std::nullopt;
    Histogram hist = getHistogram(r, std::uint64_t{1} << chunk_bits);
    std::uint64_t matches = r.u64();
    std::uint64_t candidates = r.u64();
    if (!r.ok())
        return std::nullopt;
    core::ChunkStats chunks(chunk_bits, wires);
    chunks.restore(std::move(hist), matches, candidates);
    res.chunks = std::move(chunks);

    res.dram_reads = r.u64();
    res.dram_writes = r.u64();

    run.l2.htree_dynamic = r.f64();
    run.l2.array_dynamic = r.f64();
    run.l2.aux_dynamic = r.f64();
    run.l2.static_energy = r.f64();

    run.processor.core_dynamic = r.f64();
    run.processor.core_static = r.f64();
    run.processor.l1 = r.f64();
    run.processor.uncore = r.f64();
    run.processor.l2 = r.f64();

    if (!r.atEnd())
        return std::nullopt;
    return run;
}

// --- process-wide state ------------------------------------------

std::mutex &
stateMutex()
{
    static std::mutex m;
    return m;
}

RunStats &
mutableStats()
{
    static RunStats stats;
    return stats;
}

/** Short display tag for trace/manifest lines: app/scheme#hash8. */
std::string
runTag(const SystemConfig &cfg, std::uint64_t key)
{
    char hash8[12];
    std::snprintf(hash8, sizeof(hash8), "%08llx",
                  (unsigned long long)(key >> 32));
    return detail::concat(cfg.app.name, "/",
                          shortSchemeName(cfg.l2.scheme), "#", hash8);
}

/**
 * Append one JSON line describing an executed run to the
 * DESC_RUN_MANIFEST journal. Lines are written whole under a lock,
 * so parallel workers never interleave within a line.
 */
void
emitManifestLine(const SystemConfig &cfg, const AppRun &run,
                 std::uint64_t key, bool cached, double wall_seconds)
{
    static std::mutex manifest_mutex;
    std::lock_guard<std::mutex> lock(manifest_mutex);

    static std::FILE *file = []() -> std::FILE * {
        const char *p = env::raw(env::Var::RunManifest);
        if (!p || !*p)
            return nullptr;
        std::FILE *f = std::fopen(p, "a");
        if (!f)
            warn(detail::concat("DESC_RUN_MANIFEST: cannot open \"", p,
                                "\""));
        return f;
    }();
    if (!file)
        return;

    char hash16[20];
    std::snprintf(hash16, sizeof(hash16), "%016llx",
                  (unsigned long long)key);
    const std::string &ctx = threadLogContext();
    std::fprintf(file,
                 "{\"app\": \"%s\", \"scheme\": \"%s\", "
                 "\"seed\": %llu, \"config_hash\": \"%s\", "
                 "\"model_fingerprint\": \"%016llx\", "
                 "\"cached\": %s, \"wall_seconds\": %.6g, "
                 "\"worker\": \"%s\", \"cycles\": %llu, "
                 "\"instructions\": %llu, \"l2_uj\": %.6g, "
                 "\"cpu_uj\": %.6g}\n",
                 cfg.app.name,
                 shortSchemeName(cfg.l2.scheme).c_str(),
                 (unsigned long long)cfg.seed, hash16,
                 (unsigned long long)modelFingerprint(),
                 cached ? "true" : "false", wall_seconds, ctx.c_str(),
                 (unsigned long long)run.result.cycles,
                 (unsigned long long)run.result.instructions,
                 run.l2.total() * 1e6, run.processor.total() * 1e6);
    std::fflush(file);
}

} // namespace

std::uint64_t
configHash(const SystemConfig &cfg)
{
    Writer w;
    putConfig(w, cfg);
    // FNV-1a over the canonical byte stream.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : w.bytes()) {
        h ^= std::uint8_t(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
modelFingerprint()
{
    return DESC_MODEL_FINGERPRINT;
}

RunCache::RunCache(std::string dir, std::uint64_t model)
    : _dir(std::move(dir)), _model(model)
{
    if (_dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(_dir, ec);
    if (ec) {
        warn(detail::concat("run cache disabled: cannot create \"",
                            _dir, "\": ", ec.message()));
        _dir.clear();
    }
}

RunCache
RunCache::fromEnv()
{
    if (!env::enabledNotZero(env::Var::SimCache))
        return RunCache("");
    return RunCache(
        env::stringOr(env::Var::SimCacheDir, ".desc-runcache"));
}

std::string
RunCache::path(std::uint64_t key) const
{
    char name[48];
    std::snprintf(name, sizeof(name), "%016llx-%016llx.run",
                  (unsigned long long)key, (unsigned long long)_model);
    return _dir + "/" + name;
}

std::optional<AppRun>
RunCache::load(std::uint64_t key) const
{
    if (!enabled())
        return std::nullopt;

    std::ifstream in(path(key), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof())
        return std::nullopt;

    Reader r(std::move(bytes));
    if (r.u64() != kMagic || r.u32() != kFormatVersion)
        return std::nullopt;
    if (r.u64() != key || r.u64() != _model)
        return std::nullopt;
    return getRun(r);
}

void
RunCache::store(std::uint64_t key, const AppRun &run) const
{
    if (!enabled())
        return;

    Writer w;
    w.u64(kMagic);
    w.u32(kFormatVersion);
    w.u64(key);
    w.u64(_model);
    putRun(w, run);

    // Write to a private temp file, then atomically rename into
    // place so concurrent workers (or processes) never observe a
    // partial entry.
    auto tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::string tmp = path(key) + ".tmp"
        + std::to_string((unsigned long long)tid);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return;
        out.write(w.bytes().data(),
                  std::streamsize(w.bytes().size()));
        if (!out.good())
            return;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path(key), ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
}

RunCache &
globalRunCache()
{
    static RunCache cache = RunCache::fromEnv();
    return cache;
}

void
setGlobalRunCacheDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(stateMutex());
    globalRunCache() = RunCache(dir);
}

RunStats
runStats()
{
    std::lock_guard<std::mutex> lock(stateMutex());
    return mutableStats();
}

std::string
runSummaryLine()
{
    RunStats s = runStats();
    std::string line = detail::concat(
        "[runner] ", s.jobs.value(), " points: ", s.simulated.value(),
        " simulated, ", s.cache_hits.value(), " cached (avg sim ",
        s.sim_seconds.count() ? s.sim_seconds.mean() : 0.0, "s)");
    if (s.queue_seconds.count())
        line += detail::concat(", avg queue wait ",
                               s.queue_seconds.mean(), "s");
    return line;
}

void
recordQueueWait(double seconds)
{
    std::lock_guard<std::mutex> lock(stateMutex());
    mutableStats().queue_seconds.sample(seconds);
}

AppRun
runAppCached(const SystemConfig &scaled_cfg)
{
    std::uint64_t key = configHash(scaled_cfg);

    // The key and the cache handle are snapshotted under the lock;
    // the file I/O and the simulation itself run unlocked.
    RunCache cache("");
    {
        std::lock_guard<std::mutex> lock(stateMutex());
        mutableStats().jobs.inc();
        cache = globalRunCache();
    }

    auto start = std::chrono::steady_clock::now();
    auto elapsed = [&start]() {
        return std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start).count();
    };

    if (auto cached = cache.load(key)) {
        double seconds = elapsed();
        {
            std::lock_guard<std::mutex> lock(stateMutex());
            mutableStats().cache_hits.inc();
            mutableStats().load_seconds.sample(seconds);
        }
        DESC_TRACE_HOST(Runner, "cache hit: ", runTag(scaled_cfg, key));
        recordRunStats(scaled_cfg, *cached, key);
        emitManifestLine(scaled_cfg, *cached, key, true, seconds);
        return *cached;
    }

    DESC_TRACE_HOST(Runner, "cache miss: ", runTag(scaled_cfg, key),
                    ", simulating");
    // Snapshot around the simulation so the delta isolates this run's
    // host cost even when the worker thread executes many jobs.
    const bool profiling = prof::enabled();
    prof::Profile prof_base;
    if (profiling)
        prof_base = prof::threadProfile();
    AppRun run = runScaledApp(scaled_cfg);
    double seconds = elapsed();

    prof::Profile prof_delta;
    if (profiling) {
        prof_delta = prof::deltaSince(prof_base);
        char hash16[20];
        std::snprintf(hash16, sizeof(hash16), "%016llx",
                      (unsigned long long)key);
        prof::noteRunProfile(
            detail::concat(scaled_cfg.app.name, "/",
                           shortSchemeName(scaled_cfg.l2.scheme), "#",
                           hash16),
            prof_delta);
    }

    cache.store(key, run);
    {
        std::lock_guard<std::mutex> lock(stateMutex());
        auto &stats = mutableStats();
        stats.simulated.inc();
        stats.sim_seconds.sample(seconds);
        if (cache.enabled())
            stats.cache_stores.inc();
    }
    DESC_TRACE_HOST(Runner, "simulated ", runTag(scaled_cfg, key),
                    " in ", seconds, "s");
    recordRunStats(scaled_cfg, run, key,
                   profiling ? &prof_delta : nullptr);
    emitManifestLine(scaled_cfg, run, key, false, seconds);
    return run;
}

} // namespace desc::sim
