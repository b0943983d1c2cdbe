/**
 * @file
 * In-process side of the end-to-end benchmark (see README.md).
 *
 * The figure harnesses are timed as black boxes by run.py; this
 * program rebuilds the same point configurations and calls each
 * simulator layer's public entry points on them, so run.py can
 * (a) check that its view of a workload matches what the harnesses
 * ran, (b) time a fresh process's set-up, and (c) split a point's
 * host time across layers with spans recorded here, around the calls.
 *
 *   e2e_probe hashes <workload>
 *       one configHash per point, in harness submission order
 *   e2e_probe setup <workload>
 *       runSystem on the workload's first point at the 1,000
 *       instruction minimum budget (build + warm-up + drain), then exit
 *   e2e_probe trace <workload> <seed> <spans.json> <cache-dir>
 *       traced replay of a sample of the workload's points; prints
 *       one JSON object of per-layer metrics on stdout
 *
 * Budgets honour DESC_SIM_SCALE exactly as the harnesses do.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "benchutil.hh"
#include "cache/hierarchy.hh"
#include "core/factory.hh"
#include "ecc/blockcodec.hh"
#include "sim/energy_account.hh"
#include "sim/runcache.hh"
#include "workloads/backing.hh"
#include "workloads/stream.hh"

using namespace desc;
using encoding::SchemeKind;
using Clock = std::chrono::steady_clock;

namespace {

// --- workload point lists (mirror bench/fig*.cpp, in their order) ----

std::vector<sim::SystemConfig>
fig16Points()
{
    std::vector<sim::SystemConfig> cfgs;
    for (unsigned s = 0; s < encoding::kNumSchemes; s++) {
        for (const auto &app : workloads::parallelApps()) {
            auto cfg = sim::baselineConfig(app);
            cfg.insts_per_thread = bench::kAppBudget;
            sim::applyScheme(cfg, core::allSchemeKinds()[s]);
            cfgs.push_back(cfg);
        }
    }
    return cfgs;
}

std::vector<sim::SystemConfig>
fig28Points()
{
    struct Ecc
    {
        SchemeKind kind;
        unsigned wires, segment;
    };
    const Ecc eccs[] = {{SchemeKind::Binary, 64, 64},
                        {SchemeKind::Binary, 128, 128},
                        {SchemeKind::DescZeroSkip, 128, 64},
                        {SchemeKind::DescZeroSkip, 128, 128}};
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &e : eccs) {
        for (const auto &app : workloads::parallelApps()) {
            auto cfg = sim::baselineConfig(app);
            cfg.insts_per_thread = bench::kAppBudget;
            sim::applyScheme(cfg, e.kind);
            cfg.l2.org.bus_wires = e.wires;
            cfg.l2.scheme_cfg.bus_wires = e.wires;
            cfg.l2.ecc = true;
            cfg.l2.ecc_segment_bits = e.segment;
            cfgs.push_back(cfg);
        }
    }
    return cfgs;
}

std::vector<sim::SystemConfig>
fig30Points()
{
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &app : workloads::specApps()) {
        auto base = sim::baselineConfig(app);
        base.cpu = sim::CpuKind::OutOfOrder;
        base.threads_per_core = 1;
        base.insts_per_thread = 4 * bench::kAppBudget;
        cfgs.push_back(base);
        sim::applyScheme(base, SchemeKind::DescZeroSkip);
        cfgs.push_back(base);
    }
    return cfgs;
}

sim::SystemConfig
sweepPoint(const workloads::AppParams &app, SchemeKind kind)
{
    auto cfg = sim::baselineConfig(app);
    cfg.insts_per_thread = bench::kSweepBudget;
    sim::applyScheme(cfg, kind);
    return cfg;
}

/** fig15_segment_sweep, fig22_design_scatter, fig27_cache_size. */
std::vector<sim::SystemConfig>
sweepPoints()
{
    const auto apps = bench::sweepApps();
    std::vector<sim::SystemConfig> cfgs;

    for (const auto &app : apps)
        cfgs.push_back(sweepPoint(app, SchemeKind::Binary));
    const SchemeKind seg_schemes[] = {
        SchemeKind::DynamicZeroCompression, SchemeKind::BusInvert,
        SchemeKind::ZeroSkipBusInvert,
        SchemeKind::EncodedZeroSkipBusInvert};
    for (SchemeKind kind : seg_schemes) {
        for (unsigned seg : {64u, 32u, 16u, 8u, 4u}) {
            for (const auto &app : apps) {
                auto cfg = sweepPoint(app, kind);
                cfg.l2.scheme_cfg.segment_bits = seg;
                cfgs.push_back(cfg);
            }
        }
    }

    auto scatter = [&](SchemeKind kind, unsigned banks, unsigned wires,
                       unsigned chunk) {
        for (const auto &app : apps) {
            auto cfg = sweepPoint(app, kind);
            cfg.l2.org.banks = banks;
            cfg.l2.org.bus_wires = wires;
            cfg.l2.scheme_cfg.bus_wires = wires;
            cfg.l2.scheme_cfg.chunk_bits = chunk;
            cfgs.push_back(cfg);
        }
    };
    scatter(SchemeKind::Binary, 8, 64, 4);
    for (unsigned banks : {4u, 8u, 16u})
        for (unsigned wires : {32u, 64u, 128u, 256u})
            scatter(SchemeKind::Binary, banks, wires, 4);
    for (unsigned banks : {4u, 8u, 16u})
        for (unsigned wires : {32u, 64u, 128u, 256u})
            for (unsigned chunk : {2u, 4u})
                scatter(SchemeKind::DescZeroSkip, banks, wires, chunk);

    const std::uint64_t mb = 1ull << 20;
    auto capacity = [&](SchemeKind kind, std::uint64_t bytes) {
        for (const auto &app : apps) {
            auto cfg = sweepPoint(app, kind);
            cfg.l2.org.capacity_bytes = bytes;
            cfgs.push_back(cfg);
        }
    };
    capacity(SchemeKind::Binary, 8 * mb);
    for (std::uint64_t bytes : {mb / 2, mb, 2 * mb, 4 * mb, 8 * mb,
                                16 * mb, 32 * mb, 64 * mb}) {
        capacity(SchemeKind::Binary, bytes);
        capacity(SchemeKind::DescZeroSkip, bytes);
    }
    return cfgs;
}

/** Scaled point configurations of @p workload; empty if unknown. */
std::vector<sim::SystemConfig>
workloadPoints(const std::string &workload)
{
    std::vector<sim::SystemConfig> cfgs;
    if (workload == "fig16_schemes")
        cfgs = fig16Points();
    else if (workload == "fig28_ecc")
        cfgs = fig28Points();
    else if (workload == "fig30_ooo")
        cfgs = fig30Points();
    else if (workload == "design_sweeps")
        cfgs = sweepPoints();
    for (auto &cfg : cfgs)
        cfg = sim::scaledConfig(cfg);
    return cfgs;
}

/** Points the traced replay visits: a seed-offset stride sample. */
std::vector<std::size_t>
samplePoints(const std::string &workload, std::size_t n,
             std::uint64_t seed)
{
    std::size_t want = workload == "fig30_ooo" ? n
        : workload == "design_sweeps"         ? 12
                                              : 8;
    want = std::min(want, n);
    std::size_t stride = n / want;
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < want; i++)
        ids.push_back(i * stride + seed % stride);
    return ids;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// --- spans -----------------------------------------------------------

/**
 * In-memory span log: name, start, end, parent span, point id, and
 * the count of work units the span covered. Written out once at exit.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t start_ns = 0, end_ns = 0;
        int parent = -1;
        long point = -1;
        std::uint64_t count = 0;
    };

    int
    open(std::string name, long point)
    {
        Span s;
        s.name = std::move(name);
        s.parent = _stack.empty() ? -1 : _stack.back();
        s.point = point;
        s.start_ns = nowNs();
        _spans.push_back(std::move(s));
        _stack.push_back(int(_spans.size()) - 1);
        return _stack.back();
    }

    /** Close the innermost span; returns its duration in ns. */
    std::int64_t
    close(std::uint64_t count = 1)
    {
        Span &s = _spans[std::size_t(_stack.back())];
        _stack.pop_back();
        s.end_ns = nowNs();
        s.count = count;
        return s.end_ns - s.start_ns;
    }

    const std::vector<Span> &spans() const { return _spans; }

    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "[\n");
        for (std::size_t i = 0; i < _spans.size(); i++) {
            const Span &s = _spans[i];
            std::fprintf(f,
                         "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": "
                         "%lld, \"end_ns\": %lld, \"parent\": %d, "
                         "\"point\": %ld, \"count\": %llu}%s\n",
                         i, s.name.c_str(), (long long)s.start_ns,
                         (long long)s.end_ns, s.parent, s.point,
                         (unsigned long long)s.count,
                         i + 1 < _spans.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
        return std::fclose(f) == 0;
    }

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - _t0)
            .count();
    }

    Clock::time_point _t0 = Clock::now();
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** Per-layer totals: span time and work units, summed over points. */
struct Tally
{
    double ns = 0;
    double units = 0;
    double perUnit() const { return units > 0 ? ns / units : 0.0; }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Warm the L2 the way sim::runSystem does before its timed region
 *  (that warm-up is private to sim/system.cc). */
void
prefillLikeRunSystem(cache::MemHierarchy &mem, const sim::SystemConfig &cfg,
                     unsigned threads)
{
    std::uint64_t budget =
        cfg.l2.org.capacity_bytes / cfg.l2.org.block_bytes * 7 / 10;
    for (unsigned t = 0; t < threads && budget > 0; t++) {
        Addr base = workloads::AppStream::hotBase(t);
        for (Addr a = 0; a < cfg.app.hot_bytes && budget > 0;
             a += 64, budget--)
            mem.prefill(base + a);
    }
    std::uint64_t shared =
        std::min<std::uint64_t>(cfg.app.ws_shared / 64, budget / 2);
    for (Addr a = 0; a < shared; a++)
        mem.prefill(workloads::AppStream::sharedBase() + a * 64);
    budget -= shared;
    std::uint64_t priv =
        std::min<std::uint64_t>(cfg.app.ws_private / 64, budget / threads);
    for (unsigned t = 0; t < threads; t++)
        for (Addr a = 0; a < priv; a++)
            mem.prefill(workloads::AppStream::privateBase(t) + a * 64);
}

const char *
schemeMetricName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::Binary: return "binary";
      case SchemeKind::DynamicZeroCompression: return "dzc";
      case SchemeKind::BusInvert: return "bic";
      case SchemeKind::ZeroSkipBusInvert: return "zs-bic";
      case SchemeKind::EncodedZeroSkipBusInvert: return "ezs-bic";
      case SchemeKind::DescBasic: return "desc";
      case SchemeKind::DescZeroSkip: return "zs-desc";
      case SchemeKind::DescLastValueSkip: return "lvs-desc";
    }
    return "unknown";
}

/** Blocks replayed per point through the encoders and the codec. */
constexpr std::size_t kReplayBlocks = 4096;

/** Data accesses replayed per point through the hierarchy. */
constexpr std::size_t kReplayAccesses = 50'000;

/** configHash repetitions per point (one hash is ~1 us). */
constexpr unsigned kHashReps = 200;

class JsonOut
{
  public:
    void
    metric(const std::string &name, double value, const char *unit)
    {
        std::fprintf(stdout, "%s\"%s\": [%.9g, \"%s\"]",
                     _first ? "{" : ", ", name.c_str(), value, unit);
        _first = false;
    }
    void
    finish()
    {
        std::fprintf(stdout, "%s}\n", _first ? "{" : "");
    }

  private:
    bool _first = true;
};

int
traceWorkload(const std::string &workload,
              const std::vector<sim::SystemConfig> &points,
              std::uint64_t seed, const std::string &spans_path,
              const std::string &cache_dir)
{
    const auto ids = samplePoints(workload, points.size(), seed);
    const std::uint64_t seed_mix = mix64(seed);

    Tracer tr;
    sim::RunCache cache(cache_dir);
    if (!cache.enabled()) {
        std::fprintf(stderr, "e2e_probe: cannot use cache dir %s\n",
                     cache_dir.c_str());
        return 1;
    }

    std::map<std::string, Tally> tally;
    std::vector<double> cold_ms, warm_ms, hash_us, store_us, load_us,
        energy_us, residual_s, setup_share, enc_share, ecc_share,
        overhead;
    double l2_requests = 0, l2_hits = 0, transfers = 0, dram_reads = 0,
           dram_writes = 0, cycles = 0, insts = 0, ecc_blocks = 0;
    std::set<std::vector<std::uint64_t>> warm_keys;

    for (std::size_t id : ids) {
        const long pid = long(id);
        sim::SystemConfig cfg = points[id];
        cfg.seed ^= seed_mix;
        const bool ooo = cfg.cpu == sim::CpuKind::OutOfOrder;
        const unsigned threads =
            ooo ? 1 : cfg.cores * cfg.threads_per_core;

        tr.open("point", pid);

        // sim/system: set-up at the minimum budget, cold then warm
        // warm-up snapshot cache.
        sim::SystemConfig min_cfg = cfg;
        min_cfg.insts_per_thread = 1000;
        std::vector<std::uint64_t> wkey = {
            cfg.l2.org.capacity_bytes, cfg.l2.org.block_bytes,
            cfg.l2.org.assoc, threads, cfg.app.hot_bytes,
            cfg.app.ws_shared, cfg.app.ws_private};
        if (warm_keys.insert(wkey).second) {
            tr.open("sim.system.warmup_cold", pid);
            sim::runSystem(min_cfg);
            cold_ms.push_back(double(tr.close()) * 1e-6);
        }
        tr.open("sim.system.warmup_warm", pid);
        sim::runSystem(min_cfg);
        const double setup_ns = double(tr.close());
        warm_ms.push_back(setup_ns * 1e-6);

        // The point itself, as runScaledApp runs it: once without
        // spans (the tracing-overhead baseline), then traced.
        auto plain_start = Clock::now();
        {
            auto plain = sim::runSystem(cfg);
            auto l2 = sim::computeL2Energy(cfg, plain);
            sim::computeProcessorEnergy(cfg, plain, l2);
        }
        const double plain_ns = double(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - plain_start)
                .count());
        tr.open("sim.runSystem", pid);
        sim::AppRun run;
        run.result = sim::runSystem(cfg);
        const double sim_ns = double(tr.close());
        tr.open("energy.account", pid);
        run.l2 = sim::computeL2Energy(cfg, run.result);
        run.processor =
            sim::computeProcessorEnergy(cfg, run.result, run.l2);
        const double energy_ns = double(tr.close());
        energy_us.push_back(energy_ns * 1e-3);
        overhead.push_back(100.0 * ((sim_ns + energy_ns) / plain_ns - 1.0));

        const auto &hs = run.result.hierarchy;
        l2_requests += double(hs.l2_requests.value());
        l2_hits += double(hs.l2_hits.value());
        const double blocks = double(hs.read_transfers.value()
                                     + hs.write_transfers.value());
        transfers += blocks;
        dram_reads += double(run.result.dram_reads);
        dram_writes += double(run.result.dram_writes);
        cycles += double(run.result.cycles);
        insts += double(run.result.instructions);
        if (cfg.l2.ecc)
            ecc_blocks += blocks;

        // sim/runcache on this point's AppRun.
        tr.open("sim.runcache.hash", pid);
        std::uint64_t key = 0;
        for (unsigned r = 0; r < kHashReps; r++)
            key = sim::configHash(cfg);
        hash_us.push_back(double(tr.close(kHashReps)) * 1e-3 / kHashReps);
        tr.open("sim.runcache.store", pid);
        cache.store(key, run);
        store_us.push_back(double(tr.close()) * 1e-3);
        tr.open("sim.runcache.load", pid);
        auto loaded = cache.load(key);
        load_us.push_back(double(tr.close()) * 1e-3);
        if (!loaded || loaded->result.cycles != run.result.cycles) {
            std::fprintf(stderr, "e2e_probe: run cache round trip "
                                 "failed on point %ld\n", pid);
            return 1;
        }

        // workloads: every thread's stream over the point's budget.
        workloads::ValueModel values(cfg.app, cfg.seed);
        const std::uint64_t budget = ooo
            ? cfg.insts_per_thread * cfg.threads_per_core
            : cfg.insts_per_thread;
        std::uint64_t streamed = 0;
        tr.open("workloads.stream", pid);
        for (unsigned t = 0; t < threads; t++) {
            workloads::AppStream s(cfg.app, values, t,
                                   ooo ? 0 : t / cfg.threads_per_core,
                                   cfg.seed);
            cpu::MemOp op;
            std::uint64_t n = 0;
            while (n < budget)
                n += s.nextGap(op) + 1;
            streamed += n;
        }
        tally["workloads.stream"].ns += double(tr.close(streamed));
        tally["workloads.stream"].units += double(streamed);

        // Thread 0's memory operations drive the remaining replays.
        std::vector<cpu::MemOp> ops;
        {
            workloads::AppStream s(cfg.app, values, 0, 0, cfg.seed);
            cpu::MemOp op;
            while (ops.size() < kReplayAccesses) {
                s.nextGap(op);
                ops.push_back(op);
            }
        }

        workloads::ValueBackingStore backing(cfg.app, cfg.seed);
        std::vector<cache::Block512> blocks_data;
        blocks_data.reserve(kReplayBlocks);
        tr.open("workloads.fetch", pid);
        for (std::size_t i = 0; i < kReplayBlocks; i++)
            blocks_data.push_back(backing.fetch(ops[i].addr & ~Addr{63}));
        tally["workloads.fetch"].ns += double(tr.close(kReplayBlocks));
        tally["workloads.fetch"].units += kReplayBlocks;

        std::vector<BitVec> raw(kReplayBlocks, BitVec(kBlockBits));
        for (std::size_t i = 0; i < kReplayBlocks; i++)
            cache::toBitVec(blocks_data[i], raw[i]);

        // ecc: the codec on these blocks at both segment sizes.
        double ecc_encode_ns_point = 0;
        for (unsigned seg : {64u, 128u}) {
            ecc::BlockCodec codec(kBlockBits, seg);
            std::vector<BitVec> bus(kReplayBlocks);
            std::string name = "ecc.encode.s" + std::to_string(seg);
            tr.open(name, pid);
            for (std::size_t i = 0; i < kReplayBlocks; i++)
                codec.encodeInto(raw[i], bus[i]);
            double enc = double(tr.close(kReplayBlocks));
            tally["ecc.encode"].ns += enc;
            tally["ecc.encode"].units += kReplayBlocks;
            if (cfg.l2.ecc && seg == cfg.l2.ecc_segment_bits)
                ecc_encode_ns_point = enc / kReplayBlocks;

            name = "ecc.decode.s" + std::to_string(seg);
            tr.open(name, pid);
            unsigned bad = 0;
            for (std::size_t i = 0; i < kReplayBlocks; i++) {
                auto d = codec.decode(bus[i]);
                bad += d.corrected + d.detected_double
                    + (d.block == raw[i] ? 0 : 1);
            }
            tally["ecc.decode"].ns += double(tr.close(kReplayBlocks));
            tally["ecc.decode"].units += kReplayBlocks;
            if (bad) {
                std::fprintf(stderr, "e2e_probe: ECC round trip failed "
                                     "on point %ld\n", pid);
                return 1;
            }
        }
        if (cfg.l2.ecc)
            ecc_share.push_back(100.0 * ecc_encode_ns_point * blocks
                                / sim_ns);
        else
            ecc_share.push_back(0.0);

        // encoding/core: all eight schemes at their best settings on
        // the point's plain bus (segmented schemes do not fit a
        // parity-widened one) ...
        auto replay = [&](encoding::TransferScheme &scheme,
                          const std::vector<BitVec> &words,
                          const std::string &name) {
            tr.open(name, pid);
            std::uint64_t flips = 0;
            for (const auto &w : words)
                flips += scheme.transfer(w).totalFlips();
            double ns = double(tr.close(words.size()));
            tally[name].ns += ns;
            tally[name].units += double(words.size());
            return std::make_pair(ns / double(words.size()), flips);
        };
        for (unsigned s = 0; s < encoding::kNumSchemes; s++) {
            SchemeKind kind = core::allSchemeKinds()[s];
            sim::SystemConfig scfg = cfg;
            scfg.l2.ecc = false;
            sim::applyScheme(scfg, kind);
            auto scheme = core::makeScheme(kind, scfg.l2.scheme_cfg);
            auto [ns, flips] = replay(
                *scheme, raw,
                std::string("encoding.") + schemeMetricName(kind));
            if (flips == 0 && kind == SchemeKind::Binary) {
                std::fprintf(stderr, "e2e_probe: no bus activity on "
                                     "point %ld\n", pid);
                return 1;
            }
        }

        // ... and the point's own scheme on its own (ECC-encoded,
        // parity-widened) bus, for the encoder's share of the point.
        std::vector<BitVec> words = raw;
        if (cfg.l2.ecc) {
            ecc::BlockCodec codec(kBlockBits, cfg.l2.ecc_segment_bits);
            for (std::size_t i = 0; i < kReplayBlocks; i++)
                codec.encodeInto(raw[i], words[i]);
        }
        auto point_scheme = core::makeScheme(
            cfg.l2.scheme, cfg.l2.effectiveSchemeConfig());
        const double point_scheme_ns =
            replay(*point_scheme, words, "encoding.point_scheme").first;
        enc_share.push_back(100.0 * point_scheme_ns * blocks / sim_ns);

        // cache/dram: a single issuer's closed loop through the
        // warmed hierarchy; each miss drains the event queue.
        {
            sim::EventQueue eq;
            workloads::ValueBackingStore mem_backing(cfg.app, cfg.seed);
            cache::MemHierarchy mem(eq, cfg.l2, mem_backing,
                                    ooo ? 1 : cfg.cores, cfg.l1,
                                    cfg.dram);
            prefillLikeRunSystem(mem, cfg, threads);
            bool done = false;
            cache::DoneCb cb{[](void *ctx, unsigned) {
                                 *static_cast<bool *>(ctx) = true;
                             },
                             &done, 0};
            tr.open("cache.access", pid);
            for (const auto &op : ops) {
                done = false;
                if (!mem.access(0, op.addr, op.is_write, op.store_value,
                                false, cb))
                    eq.run();
                else
                    done = true;
                if (!done || !eq.empty()) {
                    std::fprintf(stderr, "e2e_probe: hierarchy did not "
                                         "drain on point %ld\n", pid);
                    return 1;
                }
            }
            tally["cache.access"].ns += double(tr.close(ops.size()));
            tally["cache.access"].units += double(ops.size());
        }

        tr.close();

        // cpu residual: what the layer replays do not explain.
        const double explained_ns = setup_ns
            + double(run.result.instructions)
                * tally["workloads.stream"].perUnit()
            + double(hs.l1d_accesses.value())
                * tally["cache.access"].perUnit();
        residual_s.push_back((sim_ns - explained_ns) * 1e-9);
        setup_share.push_back(100.0 * setup_ns / sim_ns);
    }

    if (!tr.write(spans_path)) {
        std::fprintf(stderr, "e2e_probe: cannot write %s\n",
                     spans_path.c_str());
        return 1;
    }

    const double np = double(ids.size());
    JsonOut out;
    out.metric("trace.points", np, "count");
    out.metric("sim.system.warmup_cold_ms", median(cold_ms), "ms");
    out.metric("sim.system.warmup_warm_ms", median(warm_ms), "ms");
    out.metric("sim.system.setup_share_pct", median(setup_share), "%");
    out.metric("sim.runcache.hash_us", median(hash_us), "us");
    out.metric("sim.runcache.store_us", median(store_us), "us");
    out.metric("sim.runcache.load_us", median(load_us), "us");
    out.metric("workloads.stream_ns_per_inst",
               tally["workloads.stream"].perUnit(), "ns");
    out.metric("workloads.fetch_ns_per_block",
               tally["workloads.fetch"].perUnit(), "ns");
    for (unsigned s = 0; s < encoding::kNumSchemes; s++) {
        std::string name = std::string("encoding.")
            + schemeMetricName(core::allSchemeKinds()[s]);
        out.metric(name + ".ns_per_block", tally[name].perUnit(), "ns");
    }
    out.metric("encoding.blocks_per_point", transfers / np, "count");
    out.metric("encoding.point_share_pct", median(enc_share), "%");
    out.metric("ecc.encode_ns_per_block", tally["ecc.encode"].perUnit(),
               "ns");
    out.metric("ecc.decode_ns_per_block", tally["ecc.decode"].perUnit(),
               "ns");
    out.metric("ecc.blocks_per_point", ecc_blocks / np, "count");
    out.metric("ecc.point_share_pct", median(ecc_share), "%");
    out.metric("cache.l2_requests", l2_requests / np, "count");
    out.metric("cache.l2_hit_ratio",
               l2_requests > 0 ? l2_hits / l2_requests : 0.0, "ratio");
    out.metric("cache.transfers", transfers / np, "count");
    out.metric("cache.access_ns", tally["cache.access"].perUnit(), "ns");
    out.metric("dram.reads", dram_reads / np, "count");
    out.metric("dram.writes", dram_writes / np, "count");
    out.metric("cpu.sim_cycles", cycles / np, "count");
    out.metric("cpu.ipc", cycles > 0 ? insts / cycles : 0.0, "ratio");
    out.metric("cpu.residual_s", median(residual_s), "s");
    out.metric("energy.account_us", median(energy_us), "us");
    out.metric("trace.overhead_pct", median(overhead), "%");
    out.metric("trace.spans", double(tr.spans().size()), "count");
    out.finish();
    std::error_code ec;
    std::filesystem::remove_all(cache_dir, ec);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: e2e_probe hashes|setup <workload>\n"
                 "       e2e_probe trace <workload> <seed> <spans.json> "
                 "<cache-dir>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string mode = argv[1], workload = argv[2];
    const auto points = workloadPoints(workload);
    if (points.empty()) {
        std::fprintf(stderr, "e2e_probe: unknown workload %s\n",
                     workload.c_str());
        return 2;
    }

    if (mode == "hashes" && argc == 3) {
        for (const auto &cfg : points)
            std::printf("%016llx\n",
                        (unsigned long long)sim::configHash(cfg));
        return 0;
    }
    if (mode == "setup" && argc == 3) {
        sim::SystemConfig cfg = points.front();
        cfg.insts_per_thread = 1000;
        auto r = sim::runSystem(cfg);
        std::printf("setup instructions %llu\n",
                    (unsigned long long)r.instructions);
        return 0;
    }
    if (mode == "trace" && argc == 6) {
        char *end = nullptr;
        std::uint64_t seed = std::strtoull(argv[3], &end, 10);
        if (!end || *end)
            return usage();
        return traceWorkload(workload, points, seed, argv[4], argv[5]);
    }
    return usage();
}
