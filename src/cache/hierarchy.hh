/**
 * @file
 * The full memory hierarchy of Table 1: per-core L1 I/D caches kept
 * coherent with MESI, an inclusive shared L2 (banked UCA or S-NUCA-1)
 * whose data ports use a pluggable TransferScheme, and DDR3 memory.
 *
 * Every 512-bit block that crosses the L2 H-tree — read hits, write
 * backs, fills, dirty evictions, and coherence flushes — goes through
 * the bank's TransferScheme instance, which yields the serialization
 * window (performance) and the wire transitions (energy) for that
 * exact data value. Bank conflicts arise naturally because a bank is
 * busy for the duration of each transfer window.
 */

#ifndef DESC_CACHE_HIERARCHY_HH
#define DESC_CACHE_HIERARCHY_HH

#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cache/array.hh"
#include "cache/blockdata.hh"
#include "common/contract.hh"
#include "common/stats.hh"
#include "core/chunk.hh"
#include "dram/ddr3.hh"
#include "ecc/blockcodec.hh"
#include "encoding/scheme.hh"
#include "energy/cacti.hh"
#include "sim/eventq.hh"

namespace desc::cache {

/**
 * Completion callback for an asynchronous access: a plain function
 * pointer plus a context pointer and a small integer argument. All
 * core models key their continuations on (object, thread id), so this
 * covers every caller without the type erasure and heap spill of
 * std::function (whose captures exceed the libstdc++ small-buffer
 * size on the hot miss path).
 */
struct DoneCb
{
    using Fn = void (*)(void *ctx, unsigned arg);

    Fn fn = nullptr;
    void *ctx = nullptr;
    unsigned arg = 0;

    explicit operator bool() const { return fn != nullptr; }
    void operator()() const { fn(ctx, arg); }
};

/** MESI coherence states of an L1 line. */
enum class MesiState : std::uint8_t { Invalid, Shared, Exclusive, Modified };

struct L1Config
{
    std::uint64_t capacity_bytes = 16 * 1024;
    unsigned assoc_d = 4; //!< DL1: 4-way (Table 1)
    unsigned assoc_i = 1; //!< IL1: direct-mapped (Table 1)
    unsigned block_bytes = 64;
    Cycle hit_latency = 2;
};

struct L2Config
{
    /** Geometry/device organization (shared with the energy model). */
    energy::CacheOrg org{};

    encoding::SchemeKind scheme = encoding::SchemeKind::Binary;
    encoding::SchemeConfig scheme_cfg{};

    /** S-NUCA-1 mode: statically routed banks, distance latency. */
    bool snuca = false;
    unsigned snuca_min_latency = 3;
    unsigned snuca_max_latency = 13;

    /** Controller decode/queue latency. */
    Cycle ctrl_latency = 2;

    /** Extra logic delay of the DESC TX/RX pair (synthesis: ~625ps). */
    Cycle desc_interface_delay = 2;

    /** Coherence recall (L1 flush) round-trip penalty. */
    Cycle recall_latency = 10;

    /** SECDED protection on the H-trees (Section 3.2.3). */
    bool ecc = false;
    unsigned ecc_segment_bits = 128;

    /** Collect the Figure 12/13 chunk statistics (costs time). */
    bool collect_chunk_stats = false;

    /**
     * Back DESC banks with full cycle-accurate links (LinkDescScheme)
     * instead of the behavioral model. Results are identical, at the
     * ticked link's cost. Non-DESC schemes ignore the flag.
     */
    bool link_backed = false;

    /**
     * The scheme configuration actually used on the wires: with ECC
     * the bus word grows by the parity bits and the bus by the parity
     * wires (Figure 9), for every scheme.
     */
    encoding::SchemeConfig effectiveSchemeConfig() const;

    bool
    isDesc() const
    {
        using encoding::SchemeKind;
        return scheme == SchemeKind::DescBasic
            || scheme == SchemeKind::DescZeroSkip
            || scheme == SchemeKind::DescLastValueSkip;
    }
};

struct HierarchyStats
{
    Counter l1i_accesses, l1i_misses;
    Counter l1d_accesses, l1d_misses;
    Counter upgrades;

    Counter l2_requests, l2_hits, l2_misses;
    Counter l2_writebacks_in;  //!< dirty L1 evictions into L2
    Counter l2_fills;          //!< DRAM fills into L2
    Counter l2_evictions_out;  //!< dirty L2 evictions to DRAM
    Counter recalls;           //!< coherence flushes from an L1 owner

    Counter read_transfers, write_transfers;

    /** Transition counts (weighted by bank distance under S-NUCA). */
    double data_flips = 0.0;
    double ctrl_flips = 0.0;

    /** Total cycles any bank port spent transferring (DESC power). */
    Cycle bank_busy_cycles = 0;

    Average hit_latency;      //!< request arrival to data response
    Average transfer_window;  //!< serialization cycles per transfer
};

/**
 * A contiguous run of functional warm-up: the @p blocks 64-byte blocks
 * starting at @p base, prefilled in address order.
 */
struct WarmupRange
{
    Addr base = 0;
    std::uint64_t blocks = 0;
};

class MemHierarchy
{
  public:
    MemHierarchy(sim::EventQueue &eq, const L2Config &l2cfg,
                 BackingStore &backing, unsigned num_cores,
                 const L1Config &l1cfg = L1Config{},
                 const dram::DramConfig &dram_cfg = dram::DramConfig{});

    /**
     * One core memory access. Returns the access latency if it
     * completes synchronously (L1 hit / upgrade-free store); otherwise
     * returns nullopt and @p done fires at the completion cycle.
     *
     * @param store_value for writes: the 64-bit word the core stores
     *        (keeps the data stream through the hierarchy realistic).
     */
    std::optional<Cycle> access(unsigned core, Addr addr, bool is_write,
                                std::uint64_t store_value, bool ifetch,
                                DoneCb done);

    const HierarchyStats &stats() const { return _stats; }
    const dram::DramSystem &dramSystem() const { return _dram; }
    const core::ChunkStats &chunkStats() const { return _chunk_stats; }
    const L2Config &config() const { return _cfg; }

    /** Average L2 hit delay in cycles (Figure 21). */
    double avgHitDelay() const { return _stats.hit_latency.mean(); }

    /**
     * Functional warmup: install the block at @p addr into the L2
     * without consuming simulated time or charging activity. Used to
     * reach steady-state cache contents before the timed region, as
     * SimPoint-style sampled simulation requires.
     *
     * The install is lazy: only the tag is placed, the payload stays
     * virgin and is materialized from the backing store at the first
     * data read (l2Data()). Since the backing contents of a
     * never-written block are a pure function of its address, the
     * observable data stream is identical to an eager fill.
     *
     * runSystem does not call this block by block: setWarmupPlan()
     * replays each set's share of the warm-up through it lazily. A
     * direct call is the eager form (tests use it as the oracle).
     */
    void prefill(Addr addr);

    /**
     * Warm the L2 with @p plan, the ordered block ranges an eager
     * warm-up would prefill() one by one, without walking it: the
     * first access to each set replays the set's share of the plan
     * through prefill(), in plan order, before the access proceeds.
     *
     * This is exact. The plan runs into an empty L2, so no replayed
     * line is dirty or shared; a set's final contents depend only on
     * the subsequence of plan blocks that map to it; LRU stamps are
     * only compared within a set; and replay precedes every other
     * access to its set. Call it at most once, before any access or
     * prefill.
     */
    void setWarmupPlan(std::vector<WarmupRange> plan);

    /** Blocks in the L2 payload pool: one per way whose payload was
     *  ever written or materialized (tests). */
    std::size_t l2PayloadBlocks() const { return _l2_pool.size(); }

    /**
     * The valid L2 lines of set @p set, least recently used first,
     * after warming the set (tests: the set's replacement state).
     */
    std::vector<Addr> l2SetSnapshot(unsigned set);
    unsigned l2Sets() const { return _l2.numSets(); }

    /**
     * Line state types. Both live in zero-page arrays (ZeroArray), so
     * their default value must be all-zero bytes; a test checks it.
     */
    struct L1Meta
    {
        MesiState state = MesiState::Invalid;
        Block512 data{};
    };

    /**
     * L2 line state. The payload is not here: it lives in the pool
     * (_l2_pool), so the array stays a few bytes per line and
     * resident payload grows with the lines a run touches.
     */
    struct L2Meta
    {
        bool dirty = false;
        std::uint8_t sharers = 0; //!< DL1 sharer bitmap
        /** Owning DL1's core + 1; 0 when no core owns the line, so
         *  that a zero line is unowned. Use the accessors. */
        std::uint8_t owner_plus1 = 0;
        /** Prefilled line whose payload was never materialized: it
         *  must be loaded from the backing store before the first
         *  read (see l2Data()). Cleared by any full-block write. */
        bool virgin = false;

        bool owned() const { return owner_plus1 != 0; }
        bool
        ownedBy(unsigned core) const
        {
            return owned() && owner_plus1 - 1u == core;
        }
        unsigned owner() const { return owner_plus1 - 1u; }
        void setOwner(unsigned core) { owner_plus1 = std::uint8_t(core + 1); }
        void clearOwner() { owner_plus1 = 0; }
    };
    static_assert(sizeof(L2Meta) <= 8,
                  "L2 line state must stay a few bytes per line");

  private:
    using L1Array = SetAssocArray<L1Meta>;
    using L2Array = SetAssocArray<L2Meta>;

    struct Bank
    {
        Cycle free_at = 0;
        std::unique_ptr<encoding::TransferScheme> read_scheme;
        std::unique_ptr<encoding::TransferScheme> write_scheme;
        double energy_weight = 1.0;
        Cycle route_latency = 0;
    };

    struct MshrEntry
    {
        /**
         * One core access waiting on an L2 response. Carries the
         * store payload so the response path can apply the write
         * after filling the L1 — no per-request closure needed.
         */
        struct Waiter
        {
            unsigned core = 0;
            bool exclusive = false;
            bool ifetch = false;
            bool is_store = false;
            Addr req_addr = 0;
            std::uint64_t store_value = 0;
            DoneCb done{};
        };
        std::vector<Waiter> waiters;
        bool exclusive_needed = false;
    };

    /** L1-miss probe done; forward the request to the L2. */
    struct AccessEvent final : sim::Event
    {
        void process() override { mh->accessEvent(*this); }
        MemHierarchy *mh = nullptr;
        Addr ba = 0;
        Cycle t0 = 0;
        MshrEntry::Waiter w{};
    };

    /** L2 tag probe confirmed a miss; issue the DRAM read. */
    struct TagProbeEvent final : sim::Event
    {
        void process() override { mh->tagProbe(*this); }
        MemHierarchy *mh = nullptr;
        Addr addr = 0;
    };

    /**
     * Data response reaching the cores: fill L1s, apply the store,
     * run the completions. The waiters vector's capacity is reused
     * across acquisitions.
     */
    struct ResponseEvent final : sim::Event
    {
        void process() override { mh->respond(*this); }
        MemHierarchy *mh = nullptr;
        Addr addr = 0;
        Cycle t0 = 0;
        bool sample_hit = false;
        std::vector<MshrEntry::Waiter> waiters;
    };

    /** Plain delayed completion (store-upgrade acknowledgement). */
    struct DeliverEvent final : sim::Event
    {
        void process() override { mh->deliver(*this); }
        MemHierarchy *mh = nullptr;
        DoneCb cb{};
    };

    static constexpr std::uint32_t kNoMshr = ~std::uint32_t{0};

    unsigned bankOf(Addr addr) const;
    Addr blockAddr(Addr addr) const { return addr & ~Addr{63}; }

    /** Index into _mshr_pool of the entry for @p addr, or kNoMshr. */
    std::uint32_t
    findMshr(Addr addr) const
    {
        for (const auto &[a, idx] : _mshr_active) {
            if (a == addr)
                return idx;
        }
        return kNoMshr;
    }

    /**
     * The L2 array, with the set of @p addr warmed first. Every
     * address-keyed L2 probe (lookup, victim choice) goes through
     * here, so a set replays its warm-up before anything reads it.
     */
    L2Array &
    warmL2(Addr addr)
    {
        const unsigned set = _l2.setOf(addr);
        if (l2SetCold(set))
            replayWarmup(set);
        return _l2;
    }

    bool
    l2SetCold(unsigned set) const
    {
        return (_l2_cold[set >> 6] >> (set & 63)) & 1;
    }

    /** First touch of @p set: mark it warm, then prefill the blocks of
     *  the warm-up plan that map to it. */
    void replayWarmup(unsigned set);

    /** Line state of L2 way @p way, which must sit in a warm set. */
    L2Meta &
    l2Meta(L2Array::Way way)
    {
        DESC_DCHECK(!l2SetCold(way / _l2.assoc()),
                    "L2 way ", way, " read before its set was warmed");
        return _l2.meta(way);
    }

    /**
     * Run @p data through a bank port. Returns the completion cycle
     * (transfer fully delivered); the bank stays busy until then.
     */
    Cycle transfer(unsigned bank, const Block512 &data, bool write_dir,
                   Cycle earliest);

    /**
     * The payload of L2 line @p way, materializing a virgin prefill
     * from the backing store first. Every read of L2 data must come
     * through here; full-block writes go through l2Slot() and clear
     * the virgin flag at the write site.
     */
    const Block512 &l2Data(L2Array::Way way);

    /**
     * The pool block of L2 way @p way, assigned on the way's first
     * use and kept across refills. It holds whatever the way last
     * stored, so callers either overwrite the whole block or read it
     * through l2Data().
     */
    Block512 &l2Slot(L2Array::Way way);

    void accessEvent(AccessEvent &ev);
    void tagProbe(TagProbeEvent &ev);
    void respond(ResponseEvent &ev);
    void deliver(DeliverEvent &ev);
    AccessEvent &acquireAccess();
    ResponseEvent &acquireResponse();

    void l2Request(Addr addr, Cycle t0, MshrEntry::Waiter w);
    void startMiss(Addr addr, Cycle t0, MshrEntry::Waiter w);
    void finishMiss(Addr addr);

    /** Flush/downgrade coherence copies; returns true if a recall
     *  transfer was needed (owner had a Modified copy). */
    bool recallForShared(L2Array::Way way, Addr addr, Cycle earliest,
                         Cycle *ready);
    bool invalidateSharers(L2Array::Way way, Addr addr,
                           unsigned except_core, Cycle earliest,
                           Cycle *ready);

    void fillL1(const MshrEntry::Waiter &w, Addr addr, L2Array::Way l2way);
    /** Free the L1 victim way for @p addr (writing back a Modified
     *  line) and return it, invalid and ready to fill. */
    L1Array::Way evictL1Victim(unsigned core, L1Array &l1, Addr addr,
                               bool ifetch);

    sim::EventQueue &_eq;
    L2Config _cfg;
    energy::CacheEnergyModel _energy_model;
    BackingStore &_backing;
    dram::DramSystem _dram;

    std::vector<L1Array> _l1i;
    std::vector<L1Array> _l1d;
    L2Array _l2;
    std::vector<Bank> _banks;

    /**
     * L2 payloads: a block pool, and per way the index of its pool
     * block plus one (0 until the way's first payload write or
     * materialization, so the slot table starts as zero pages). A
     * deque, so growth neither moves blocks that l2Data() references
     * point at nor over-allocates by doubling.
     */
    std::deque<Block512> _l2_pool;
    ZeroArray<std::uint32_t> _l2_slot;

    /** The warm-up plan (setWarmupPlan()) and one bit per L2 set
     *  that nothing has touched yet: its first probe replays its share
     *  of the plan, if any. */
    std::vector<WarmupRange> _warmup;
    std::vector<std::uint64_t> _l2_cold;

    /**
     * MSHRs as an index-stable pool plus a small active list. The
     * handful of misses in flight make a linear scan cheaper than
     * hashing, and recycled entries keep their waiters capacity.
     */
    std::vector<MshrEntry> _mshr_pool;
    std::vector<std::uint32_t> _mshr_free;
    std::vector<std::pair<Addr, std::uint32_t>> _mshr_active;

    std::deque<AccessEvent> _access_events; //!< pinned storage
    std::vector<AccessEvent *> _access_free;
    std::deque<TagProbeEvent> _tag_events;
    std::vector<TagProbeEvent *> _tag_free;
    std::deque<ResponseEvent> _response_events;
    std::vector<ResponseEvent *> _response_free;
    std::deque<DeliverEvent> _deliver_events;
    std::vector<DeliverEvent *> _deliver_free;

    std::unique_ptr<ecc::BlockCodec> _codec;
    BitVec _scratch;     //!< reusable transfer word
    BitVec _scratch_raw; //!< reusable 512-bit word (pre-ECC)

    unsigned _array_read_cycles;
    unsigned _array_write_cycles;
    Cycle _flight;

    HierarchyStats _stats;
    core::ChunkStats _chunk_stats;
};

} // namespace desc::cache

#endif // DESC_CACHE_HIERARCHY_HH
