/**
 * @file
 * Integration tests for the memory hierarchy: hit/miss timing,
 * transfer accounting, MSHR merging, warmup, ECC wiring, and the L2
 * payload pool.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>
#include <vector>

#include "cache/hierarchy.hh"

using namespace desc;
using namespace desc::cache;

namespace {

/** Deterministic pattern-backed memory for tests. */
class PatternStore : public BackingStore
{
  public:
    const Block512 &
    fetch(Addr addr) override
    {
        auto it = _mem.find(addr);
        if (it == _mem.end()) {
            Block512 b{};
            for (unsigned w = 0; w < 8; w++)
                b[w] = addr * 31 + w;
            it = _mem.emplace(addr, b).first;
        }
        return it->second;
    }

    void
    store(Addr addr, const Block512 &data) override
    {
        _mem[addr] = data;
        stores++;
    }

    unsigned stores = 0;

  private:
    std::unordered_map<Addr, Block512> _mem;
};

struct Fixture
{
    sim::EventQueue eq;
    PatternStore backing;
    L2Config cfg;
    std::unique_ptr<MemHierarchy> mem;

    explicit Fixture(L2Config c = L2Config{}, unsigned cores = 2)
        : cfg(c)
    {
        mem = std::make_unique<MemHierarchy>(eq, cfg, backing, cores);
    }

    Cycle done_at = 0;

    /** Callback stamping the fixture's completion time. */
    DoneCb
    stampDone()
    {
        return {[](void *c, unsigned) {
                    auto *f = static_cast<Fixture *>(c);
                    f->done_at = f->eq.now();
                },
                this, 0};
    }

    /** Blocking read; returns the completion latency in cycles. */
    Cycle
    read(unsigned core, Addr addr)
    {
        Cycle start = eq.now();
        done_at = 0;
        auto lat = mem->access(core, addr, false, 0, false, stampDone());
        if (lat)
            return *lat;
        eq.run();
        return done_at - start;
    }

    Cycle
    write(unsigned core, Addr addr, std::uint64_t value)
    {
        Cycle start = eq.now();
        done_at = 0;
        auto lat = mem->access(core, addr, true, value, false,
                               stampDone());
        if (lat)
            return *lat;
        eq.run();
        return done_at - start;
    }
};

/** Callback bumping an unsigned counter. */
DoneCb
countDone(unsigned *counter)
{
    return {[](void *c, unsigned) { ++*static_cast<unsigned *>(c); },
            counter, 0};
}

} // namespace

TEST(Hierarchy, L1HitIsSynchronousAndFast)
{
    Fixture f;
    f.read(0, 0x1000);            // miss, fills L1
    EXPECT_EQ(f.read(0, 0x1000), 2u); // now an L1 hit
    EXPECT_EQ(f.mem->stats().l1d_accesses.value(), 2u);
    EXPECT_EQ(f.mem->stats().l1d_misses.value(), 1u);
}

TEST(Hierarchy, L2HitFasterThanMiss)
{
    Fixture f;
    Cycle miss = f.read(0, 0x2000);
    // Same block from the other core: L2 hit (L1 of core 1 is cold).
    Cycle hit = f.read(1, 0x2000);
    EXPECT_LT(hit, miss);
    EXPECT_EQ(f.mem->stats().l2_hits.value(), 1u);
    EXPECT_EQ(f.mem->stats().l2_misses.value(), 1u);
}

TEST(Hierarchy, HitLatencyNearTable1)
{
    // Table 1: hit delay ~19 cycles with the 64-bit bus.
    Fixture f;
    f.read(0, 0x3000);
    Cycle hit = f.read(1, 0x3000);
    EXPECT_GE(hit, 12u);
    EXPECT_LE(hit, 30u);
}

TEST(Hierarchy, TransfersAreCountedAndFlipsAccumulate)
{
    Fixture f;
    f.read(0, 0x4000);
    const auto &s = f.mem->stats();
    // A miss fills the bank (write transfer); no read transfer yet.
    EXPECT_EQ(s.write_transfers.value(), 1u);
    f.read(1, 0x4000); // L2 hit: read transfer out of the bank
    EXPECT_EQ(s.read_transfers.value(), 1u);
    EXPECT_GT(s.data_flips, 0.0);
}

TEST(Hierarchy, PrefillMakesAccessesHit)
{
    Fixture f;
    f.mem->prefill(0x5000);
    f.read(0, 0x5000);
    EXPECT_EQ(f.mem->stats().l2_hits.value(), 1u);
    EXPECT_EQ(f.mem->stats().l2_misses.value(), 0u);
}

TEST(Hierarchy, MshrMergesConcurrentMisses)
{
    Fixture f;
    unsigned done = 0;
    f.mem->access(0, 0x6000, false, 0, false, countDone(&done));
    f.mem->access(1, 0x6000, false, 0, false, countDone(&done));
    f.eq.run();
    EXPECT_EQ(done, 2u);
    // One miss, one DRAM fetch, one fill; the second request merged.
    EXPECT_EQ(f.mem->stats().l2_misses.value(), 1u);
    EXPECT_EQ(f.mem->stats().l2_fills.value(), 1u);
}

TEST(Hierarchy, OutOfOrderDramCompletionsFinishTheirOwnMisses)
{
    // Six misses in flight at once on DRAM channel 0. The first four
    // fill the channel's overlap window; then a4 (row miss in bank 0)
    // and a5 (hit on the row a0 opens in bank 0) queue, and FR-FCFS
    // serves a5 before a4. Core 1 merges into the a4 and a5 MSHRs.
    const Addr addrs[] = {0x0000, 0x0080, 0x0100, 0x0180, 0x50000, 0x0400};
    constexpr unsigned kBlocks = 6;

    // Reference: the DRAM model alone, fed the same reads in the same
    // order in one cycle, gives each block's relative completion time.
    sim::EventQueue ref_eq;
    dram::DramSystem ref_dram(ref_eq);
    Cycle ref_done[kBlocks] = {};
    struct RefCtx
    {
        sim::EventQueue *eq;
        Cycle *done;
    } ref_ctx{&ref_eq, ref_done};
    for (unsigned b = 0; b < kBlocks; b++) {
        ref_dram.access(addrs[b], false,
                        {[](void *c, unsigned i) {
                             auto *x = static_cast<RefCtx *>(c);
                             x->done[i] = x->eq->now();
                         },
                         &ref_ctx, b});
    }
    ref_eq.run();
    ASSERT_LT(ref_done[5], ref_done[4])
        << "the workload must make DRAM complete out of issue order";

    Fixture f(L2Config{}, 3);
    struct Waiter
    {
        unsigned core;
        unsigned block;
        Cycle done = 0;
        bool own_line_in_l1 = false;
    };
    std::vector<Waiter> waiters;
    for (unsigned b = 0; b < kBlocks; b++)
        waiters.push_back({0, b});
    waiters.push_back({1, 4});
    waiters.push_back({1, 5});
    struct Ctx
    {
        Fixture *f;
        std::vector<Waiter> *waiters;
        const Addr *addrs;
    } ctx{&f, &waiters, addrs};
    const DoneCb::Fn on_done = [](void *c, unsigned i) {
        auto *x = static_cast<Ctx *>(c);
        Waiter &w = (*x->waiters)[i];
        w.done = x->f->eq.now();
        // The completing waiter's own block must be in its L1 now: a
        // re-read is a synchronous L1 hit.
        w.own_line_in_l1 = x->f->mem
                               ->access(w.core, x->addrs[w.block], false,
                                        0, false, DoneCb{})
                               .has_value();
    };
    for (unsigned i = 0; i < waiters.size(); i++) {
        auto lat = f.mem->access(waiters[i].core, addrs[waiters[i].block],
                                 false, 0, false, {on_done, &ctx, i});
        ASSERT_FALSE(lat.has_value());
    }
    f.eq.run();
    EXPECT_EQ(f.mem->stats().l2_misses.value(), kBlocks);

    // Every waiter completes, on its own block, a fixed response delay
    // after the DRAM read of that block: the same offset for all.
    const Cycle offset = waiters[0].done - ref_done[0];
    for (const Waiter &w : waiters) {
        EXPECT_GT(w.done, 0u) << "block " << w.block;
        EXPECT_TRUE(w.own_line_in_l1) << "block " << w.block;
        EXPECT_EQ(w.done - ref_done[w.block], offset)
            << "core " << w.core << " block " << w.block;
    }

    // No MSHR leaked: a third core's reads of the same blocks are
    // fresh L2 hits that complete, not merges into a dead entry.
    unsigned late = 0;
    for (unsigned b = 0; b < kBlocks; b++)
        f.mem->access(2, addrs[b], false, 0, false, countDone(&late));
    f.eq.run();
    EXPECT_EQ(late, kBlocks);
    EXPECT_EQ(f.mem->stats().l2_misses.value(), kBlocks);
    EXPECT_EQ(f.mem->stats().l2_hits.value(), kBlocks);
}

TEST(Hierarchy, DirtyEvictionWritesBack)
{
    L2Config cfg;
    cfg.org.capacity_bytes = 64 * 1024; // tiny L2: 64 sets of 16
    Fixture f(cfg);
    // Dirty one block, then stream enough blocks through its set to
    // evict it.
    f.write(0, 0x10000, 0xdead);
    // Evict from L1 first so the L2 line is not sharer-protected:
    // stream through L1's set too.
    for (unsigned i = 1; i <= 40; i++)
        f.read(0, 0x10000 + Addr(i) * 64 * 1024);
    EXPECT_GT(f.backing.stores, 0u);
    // The dirty data must round-trip through memory.
    f.read(1, 0x10000);
    auto &blk = f.backing.fetch(0x10000);
    EXPECT_EQ(blk[0], 0xdeadull);
}

TEST(Hierarchy, DescSchemeLengthensHitLatency)
{
    L2Config binary;
    Fixture fb(binary);
    fb.read(0, 0x7000);
    Cycle bin_hit = fb.read(1, 0x7000);

    L2Config desc_cfg;
    desc_cfg.scheme = encoding::SchemeKind::DescZeroSkip;
    desc_cfg.scheme_cfg.bus_wires = 128;
    desc_cfg.org.bus_wires = 128;
    Fixture fd(desc_cfg);
    fd.read(0, 0x7000);
    Cycle desc_hit = fd.read(1, 0x7000);

    EXPECT_GT(desc_hit, bin_hit);
}

TEST(Hierarchy, EccWidensTheBus)
{
    L2Config cfg;
    cfg.scheme_cfg.bus_wires = 128;
    cfg.ecc = true;
    cfg.ecc_segment_bits = 128;
    auto eff = cfg.effectiveSchemeConfig();
    EXPECT_EQ(eff.block_bits, 548u);
    EXPECT_EQ(eff.bus_wires, 137u); // 4 beats of 137 wires

    // The (72,64) code on the default 64-wire bus: 8 beats of 72.
    L2Config cfg64;
    cfg64.ecc = true;
    cfg64.ecc_segment_bits = 64;
    auto eff64 = cfg64.effectiveSchemeConfig();
    EXPECT_EQ(eff64.block_bits, 576u);
    EXPECT_EQ(eff64.bus_wires, 72u);

    L2Config desc_cfg;
    desc_cfg.scheme = encoding::SchemeKind::DescZeroSkip;
    desc_cfg.scheme_cfg.bus_wires = 128;
    desc_cfg.ecc = true;
    desc_cfg.ecc_segment_bits = 128;
    auto eff2 = desc_cfg.effectiveSchemeConfig();
    EXPECT_EQ(eff2.block_bits, 548u);
    EXPECT_EQ(eff2.bus_wires, 137u); // nine parity chunk wires
}

TEST(Hierarchy, EccHierarchyRunsEndToEnd)
{
    L2Config cfg;
    cfg.ecc = true;
    cfg.ecc_segment_bits = 64;
    Fixture f(cfg);
    f.read(0, 0x8000);
    Cycle hit = f.read(1, 0x8000);
    EXPECT_GT(hit, 0u);
    EXPECT_GT(f.mem->stats().data_flips, 0.0);
}

TEST(Hierarchy, SnucaBankLatencyGrowsWithDistance)
{
    L2Config cfg;
    cfg.snuca = true;
    cfg.org.banks = 128;
    cfg.org.bus_wires = 128;
    cfg.scheme_cfg.bus_wires = 128;
    Fixture f(cfg);
    // Bank 0 (near) vs bank 127 (far): block index selects the bank.
    f.read(0, 0 * 64);
    f.read(0, 127 * 64);
    Cycle near = f.read(1, 0 * 64);
    Cycle far = f.read(1, 127 * 64);
    EXPECT_LT(near, far);
}

TEST(Hierarchy, UpgradeOnSharedStoreInvalidatesPeers)
{
    Fixture f;
    f.read(0, 0x9000);
    f.read(1, 0x9000); // both cores share the line
    // Core 0 stores: upgrade, core 1's copy must invalidate.
    f.write(0, 0x9000, 77);
    EXPECT_GE(f.mem->stats().upgrades.value(), 1u);
    // Core 1 reads again: must go back to the L2 (L1 miss).
    auto before = f.mem->stats().l1d_misses.value();
    f.read(1, 0x9000);
    EXPECT_EQ(f.mem->stats().l1d_misses.value(), before + 1);
}

// --- L2 payload pool --------------------------------------------------

namespace {

/** A 64KB direct-mapped L2: addresses 64KB apart share one line. */
L2Config
directMappedL2()
{
    L2Config cfg;
    cfg.org.capacity_bytes = 64 * 1024;
    cfg.org.assoc = 1;
    return cfg;
}

constexpr Addr kLineA = 0x10000;
constexpr Addr kLineB = kLineA + 64 * 1024; //!< same L2 line as A

/** Store @p value into word 0 of @p addr on core 0, then push the
 *  Modified copy out of core 0's DL1 (16KB, 4-way: 4KB strides hit
 *  one L1 set, but distinct L2 lines) so the L2 line goes dirty. */
void
dirtyL2ByWriteback(Fixture &f, Addr addr, std::uint64_t value)
{
    f.write(0, addr, value);
    for (Addr k = 1; k <= 4; k++)
        f.read(0, addr + k * 4096);
    ASSERT_EQ(f.mem->stats().l2_writebacks_in.value(), 1u);
}

} // namespace

TEST(HierarchyPayloadPool, WarmupPrefillMaterializesNoPayload)
{
    Fixture f;
    const Addr lines = f.cfg.org.capacity_bytes / 64;
    for (Addr i = 0; i < lines; i++)
        f.mem->prefill(i * 64);
    EXPECT_EQ(f.mem->l2PayloadBlocks(), 0u);

    // The first read materializes exactly the line it touches.
    f.read(0, 5 * 64);
    EXPECT_EQ(f.mem->stats().l2_hits.value(), 1u);
    EXPECT_EQ(f.mem->l2PayloadBlocks(), 1u);
}

TEST(HierarchyPayloadPool, RefilledWayKeepsSlotButNotData)
{
    Fixture f(directMappedL2());
    dirtyL2ByWriteback(f, kLineA, 0xdead);
    const auto blocks = f.mem->l2PayloadBlocks();

    // B misses into A's way: A's dirty payload goes to memory.
    f.read(1, kLineB);
    EXPECT_EQ(f.mem->stats().l2_evictions_out.value(), 1u);
    EXPECT_EQ(f.backing.stores, 1u);
    const Block512 a = f.backing.fetch(kLineA);
    EXPECT_EQ(a[0], 0xdeadull);
    for (unsigned w = 1; w < 8; w++)
        EXPECT_EQ(a[w], kLineA * 31 + w);
    // The way reused its pool block.
    EXPECT_EQ(f.mem->l2PayloadBlocks(), blocks);

    // Dirty B in core 1, then evict it through the same way: what
    // reaches memory is B's own data plus the store, none of A's.
    f.write(1, kLineB + 8, 0xbeef);
    f.read(1, kLineB + 64 * 1024);
    EXPECT_EQ(f.backing.stores, 2u);
    const Block512 b = f.backing.fetch(kLineB);
    EXPECT_EQ(b[0], kLineB * 31);
    EXPECT_EQ(b[1], 0xbeefull);
    for (unsigned w = 2; w < 8; w++)
        EXPECT_EQ(b[w], kLineB * 31 + w);
}

TEST(HierarchyPayloadPool, PrefillOverDirtyLineWritesPayloadBack)
{
    Fixture f(directMappedL2());
    dirtyL2ByWriteback(f, kLineA, 0xdead);
    EXPECT_EQ(f.backing.stores, 0u);

    f.mem->prefill(kLineB);
    EXPECT_EQ(f.backing.stores, 1u);
    EXPECT_EQ(f.backing.fetch(kLineA)[0], 0xdeadull);

    // The prefilled line is a lazy install that still hits.
    f.read(1, kLineB);
    EXPECT_EQ(f.mem->stats().l2_misses.value(), 5u); // A + 4 strides
    EXPECT_EQ(f.mem->stats().l2_hits.value(), 1u);
}

TEST(HierarchyLineState, ZeroBytesAreTheDefaultLineState)
{
    // The L1 and L2 arrays start as zero pages, so an all-zero line
    // must read as a default (invalid, clean, unowned) one.
    MemHierarchy::L1Meta l1;
    std::memset(static_cast<void *>(&l1), 0, sizeof(l1));
    const MemHierarchy::L1Meta l1_default{};
    EXPECT_EQ(l1.state, l1_default.state);
    EXPECT_EQ(l1.data, l1_default.data);

    const MemHierarchy::L2Meta l2_default{};
    const unsigned char zeros[sizeof(MemHierarchy::L2Meta)] = {};
    EXPECT_EQ(std::memcmp(&l2_default, zeros, sizeof(zeros)), 0);
    EXPECT_FALSE(l2_default.owned());
    EXPECT_FALSE(l2_default.ownedBy(0));
    EXPECT_FALSE(l2_default.ownedBy(unsigned(-1)));

    MemHierarchy::L2Meta m{};
    m.setOwner(0);
    EXPECT_TRUE(m.owned());
    EXPECT_TRUE(m.ownedBy(0));
    EXPECT_EQ(m.owner(), 0u);
    m.setOwner(7);
    EXPECT_TRUE(m.ownedBy(7));
    EXPECT_FALSE(m.ownedBy(0));
    m.clearOwner();
    EXPECT_FALSE(m.owned());
}
