/**
 * @file
 * The lazy L2 warm-up against the eager prefill walk it replaces.
 *
 * runSystem hands the hierarchy a warm-up plan (sim::warmupPlan) and
 * each L2 set replays its share of the plan at its first access. The
 * oracle here is the walk runSystem used to make: prefill() on every
 * plan block, in order, before the timed region. Two hierarchies, one
 * warmed each way, run the same randomized access stream; every
 * completion cycle, every hierarchy and DRAM statistic, and the final
 * tags and LRU order of every L2 set must agree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workloads/backing.hh"
#include "workloads/stream.hh"

using namespace desc;
using namespace desc::sim;

namespace {

constexpr std::uint64_t kMB = 1ull << 20;

/** The warm-up walk runSystem ran eagerly before warm-up became
 *  lazy, kept verbatim as the oracle of warmupPlan(). */
std::vector<Addr>
eagerWalk(const SystemConfig &cfg)
{
    std::vector<Addr> out;
    unsigned threads = cfg.cpu == CpuKind::OutOfOrder
        ? 1
        : cfg.cores * cfg.threads_per_core;
    std::uint64_t budget_blocks =
        cfg.l2.org.capacity_bytes / cfg.l2.org.block_bytes * 7 / 10;
    for (unsigned t = 0; t < threads && budget_blocks > 0; t++) {
        Addr base = workloads::AppStream::hotBase(t);
        for (Addr a = 0; a < cfg.app.hot_bytes && budget_blocks > 0;
             a += 64, budget_blocks--) {
            out.push_back(base + a);
        }
    }
    std::uint64_t shared_blocks = std::min<std::uint64_t>(
        cfg.app.ws_shared / 64, budget_blocks / 2);
    for (Addr a = 0; a < shared_blocks; a++)
        out.push_back(workloads::AppStream::sharedBase() + a * 64);
    budget_blocks -= shared_blocks;
    std::uint64_t priv_blocks = std::min<std::uint64_t>(
        cfg.app.ws_private / 64, budget_blocks / threads);
    for (unsigned t = 0; t < threads; t++) {
        Addr base = workloads::AppStream::privateBase(t);
        for (Addr a = 0; a < priv_blocks; a++)
            out.push_back(base + a * 64);
    }
    return out;
}

std::vector<Addr>
expand(const std::vector<cache::WarmupRange> &plan)
{
    std::vector<Addr> out;
    for (const auto &r : plan) {
        for (std::uint64_t k = 0; k < r.blocks; k++)
            out.push_back(r.base + k * 64);
    }
    return out;
}

std::uint64_t
planBlocks(const SystemConfig &cfg)
{
    std::uint64_t n = 0;
    for (const auto &r : warmupPlan(cfg))
        n += r.blocks;
    return n;
}

SystemConfig
smtPoint(const workloads::AppParams &app, std::uint64_t capacity)
{
    SystemConfig cfg = baselineConfig(app);
    cfg.l2.org.capacity_bytes = capacity;
    return cfg;
}

/** fig30's machine: one out-of-order core, one thread. */
SystemConfig
oooPoint(const workloads::AppParams &app, std::uint64_t capacity)
{
    SystemConfig cfg = smtPoint(app, capacity);
    cfg.cpu = CpuKind::OutOfOrder;
    cfg.threads_per_core = 1;
    return cfg;
}

const std::uint64_t kFig27Capacities[] = {kMB / 2, kMB,      2 * kMB,
                                          4 * kMB,  8 * kMB,  16 * kMB,
                                          32 * kMB, 64 * kMB};

// --- the randomized differential -------------------------------------

/** One step of the driven stream, issued at cycle `at`. */
struct Op
{
    Cycle at = 0;
    bool prefill = false; //!< a public prefill() instead of an access
    unsigned core = 0;
    Addr addr = 0;
    bool write = false;
    bool ifetch = false;
    std::uint64_t value = 0;
};

/**
 * Accesses spread over everything the warm-up covers and past it: the
 * hot stripes, shared and private data of every thread (20% beyond the
 * warmed prefix), code, and far addresses no plan touches, with
 * stores, and an occasional public prefill() mid-run.
 */
std::vector<Op>
makeStream(const SystemConfig &cfg, unsigned cores, std::uint64_t seed,
           std::size_t n)
{
    Rng rng(seed);
    const unsigned threads = cfg.cpu == CpuKind::OutOfOrder
        ? 1
        : cfg.cores * cfg.threads_per_core;
    const auto &app = cfg.app;
    auto offset = [&rng](std::uint64_t bytes) {
        return Addr(rng.below(bytes + bytes / 5 + 64)) & ~Addr{7};
    };
    std::vector<Op> ops;
    Cycle at = 1;
    for (std::size_t i = 0; i < n; i++) {
        Op op;
        at += rng.below(4) == 0 ? rng.between(1, 60) : 0;
        op.at = at;
        op.core = unsigned(rng.below(cores));
        const unsigned t = unsigned(rng.below(threads));
        const auto pick = rng.below(100);
        if (pick < 30) {
            op.addr = workloads::AppStream::hotBase(t)
                + offset(app.hot_bytes);
        } else if (pick < 55) {
            op.addr = workloads::AppStream::sharedBase()
                + offset(app.ws_shared);
        } else if (pick < 85) {
            op.addr = workloads::AppStream::privateBase(t)
                + offset(app.ws_private);
        } else if (pick < 95) {
            op.addr = workloads::AppStream::codeBase(op.core)
                + offset(app.code_bytes);
            op.ifetch = true;
        } else {
            op.addr = (Addr{1} << 46) + (rng.next() & 0xfffffffc0ull);
        }
        if (!op.ifetch)
            op.write = rng.below(100) < 30;
        op.value = rng.next();
        op.prefill = !op.ifetch && rng.below(200) == 0;
        ops.push_back(op);
    }
    return ops;
}

/** One hierarchy plus the event that feeds it the stream. */
struct Side
{
    EventQueue eq;
    workloads::ValueBackingStore backing;
    cache::MemHierarchy mem;
    const std::vector<Op> &ops;
    std::vector<Cycle> done;

    struct Driver final : Event
    {
        void process() override { side->issue(); }
        Side *side = nullptr;
    } driver;
    std::size_t next = 0;

    Side(const SystemConfig &cfg, unsigned cores,
         const std::vector<Op> &stream)
        : backing(cfg.app, cfg.seed),
          mem(eq, cfg.l2, backing, cores, cfg.l1, cfg.dram), ops(stream),
          done(stream.size(), 0)
    {
        driver.side = this;
    }

    static void
    complete(void *ctx, unsigned i)
    {
        auto *s = static_cast<Side *>(ctx);
        s->done[i] = s->eq.now();
    }

    void
    issue()
    {
        const Cycle now = eq.now();
        for (; next < ops.size() && ops[next].at == now; next++) {
            const Op &op = ops[next];
            if (op.prefill) {
                mem.prefill(op.addr);
                done[next] = now;
                continue;
            }
            auto lat = mem.access(op.core, op.addr, op.write, op.value,
                                  op.ifetch,
                                  {&Side::complete, this, unsigned(next)});
            if (lat)
                done[next] = now + *lat;
        }
        if (next < ops.size())
            eq.schedule(driver, ops[next].at);
    }

    void
    run()
    {
        eq.schedule(driver, ops.front().at);
        eq.run();
    }
};

void
expectSameAverage(const Average &a, const Average &b, const char *what)
{
    EXPECT_EQ(a.count(), b.count()) << what;
    EXPECT_EQ(a.sum(), b.sum()) << what;
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
}

void
expectSameStats(const cache::HierarchyStats &a,
                const cache::HierarchyStats &b)
{
#define DESC_SAME_COUNTER(f) EXPECT_EQ(a.f.value(), b.f.value()) << #f
    DESC_SAME_COUNTER(l1i_accesses);
    DESC_SAME_COUNTER(l1i_misses);
    DESC_SAME_COUNTER(l1d_accesses);
    DESC_SAME_COUNTER(l1d_misses);
    DESC_SAME_COUNTER(upgrades);
    DESC_SAME_COUNTER(l2_requests);
    DESC_SAME_COUNTER(l2_hits);
    DESC_SAME_COUNTER(l2_misses);
    DESC_SAME_COUNTER(l2_writebacks_in);
    DESC_SAME_COUNTER(l2_fills);
    DESC_SAME_COUNTER(l2_evictions_out);
    DESC_SAME_COUNTER(recalls);
    DESC_SAME_COUNTER(read_transfers);
    DESC_SAME_COUNTER(write_transfers);
#undef DESC_SAME_COUNTER
    EXPECT_EQ(a.data_flips, b.data_flips);
    EXPECT_EQ(a.ctrl_flips, b.ctrl_flips);
    EXPECT_EQ(a.bank_busy_cycles, b.bank_busy_cycles);
    expectSameAverage(a.hit_latency, b.hit_latency, "hit_latency");
    expectSameAverage(a.transfer_window, b.transfer_window,
                      "transfer_window");
}

struct DiffCase
{
    bool ooo;
    std::uint64_t capacity;
    unsigned assoc;
};

std::string
caseName(const testing::TestParamInfo<DiffCase> &info)
{
    const DiffCase &c = info.param;
    std::string size = c.capacity < kMB
        ? std::to_string(c.capacity >> 10) + "KB"
        : std::to_string(c.capacity / kMB) + "MB";
    return std::string(c.ooo ? "Ooo" : "Smt") + "_" + size + "_"
        + (c.assoc == 1 ? "Direct" : std::to_string(c.assoc) + "Way");
}

std::vector<DiffCase>
diffCases()
{
    std::vector<DiffCase> cases;
    for (bool ooo : {false, true})
        for (std::uint64_t cap : kFig27Capacities)
            for (unsigned assoc : {16u, 1u})
                cases.push_back({ooo, cap, assoc});
    return cases;
}

class LazyWarmup : public testing::TestWithParam<DiffCase>
{};

} // namespace

TEST(WarmupPlan, BlockCountsMatchTheEagerWalk)
{
    // The first points of fig16 (SMT 8x4) and fig30 (one OoO core).
    EXPECT_EQ(planBlocks(smtPoint(workloads::parallelApps()[0], 8 * kMB)),
              91'731u);
    EXPECT_EQ(planBlocks(oooPoint(workloads::specApps()[0], 8 * kMB)),
              65'584u);
}

TEST(WarmupPlan, ExpandsToTheEagerWalkAtEveryCapacity)
{
    for (std::uint64_t cap : kFig27Capacities) {
        for (const auto &app : workloads::parallelApps()) {
            for (const SystemConfig &cfg :
                 {smtPoint(app, cap), oooPoint(app, cap)}) {
                EXPECT_EQ(expand(warmupPlan(cfg)), eagerWalk(cfg))
                    << app.name << " at " << cap << " bytes";
            }
        }
    }
}

TEST_P(LazyWarmup, MatchesTheEagerPrefillOracle)
{
    const DiffCase c = GetParam();
    const auto &app = workloads::parallelApps()[c.capacity % 7];
    SystemConfig cfg = c.ooo ? oooPoint(app, c.capacity)
                             : smtPoint(app, c.capacity);
    cfg.l2.org.assoc = c.assoc;
    const unsigned cores = c.ooo ? 1 : cfg.cores;
    const auto ops = makeStream(cfg, cores, c.capacity ^ c.assoc, 6000);

    Side lazy(cfg, cores, ops);
    lazy.mem.setWarmupPlan(warmupPlan(cfg));
    Side eager(cfg, cores, ops);
    for (Addr a : eagerWalk(cfg))
        eager.mem.prefill(a);

    lazy.run();
    eager.run();

    ASSERT_EQ(lazy.done.size(), eager.done.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < ops.size(); i++) {
        if (lazy.done[i] != eager.done[i] && mismatches++ < 5)
            ADD_FAILURE() << "access " << i << " completed at "
                          << lazy.done[i] << " (lazy) vs "
                          << eager.done[i] << " (eager)";
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(lazy.eq.now(), eager.eq.now());
    expectSameStats(lazy.mem.stats(), eager.mem.stats());

    const auto &ld = lazy.mem.dramSystem().stats();
    const auto &ed = eager.mem.dramSystem().stats();
    EXPECT_EQ(ld.reads.value(), ed.reads.value());
    EXPECT_EQ(ld.writes.value(), ed.writes.value());
    EXPECT_EQ(ld.row_hits.value(), ed.row_hits.value());
    EXPECT_EQ(ld.row_misses.value(), ed.row_misses.value());
    expectSameAverage(ld.latency, ed.latency, "dram latency");
    EXPECT_EQ(lazy.mem.l2PayloadBlocks(), eager.mem.l2PayloadBlocks());

    ASSERT_EQ(lazy.mem.l2Sets(), eager.mem.l2Sets());
    std::size_t bad_sets = 0;
    for (unsigned s = 0; s < lazy.mem.l2Sets(); s++) {
        if (lazy.mem.l2SetSnapshot(s) != eager.mem.l2SetSnapshot(s)
            && bad_sets++ < 5)
            ADD_FAILURE() << "L2 set " << s << " differs";
    }
    EXPECT_EQ(bad_sets, 0u);
}

INSTANTIATE_TEST_SUITE_P(Fig27Capacities, LazyWarmup,
                         testing::ValuesIn(diffCases()), caseName);
