/**
 * @file
 * Generic set-associative array with LRU replacement.
 *
 * Storage is struct-of-arrays: the packed tag+valid words of a set sit
 * contiguously (a 4-way probe reads 32 bytes — one cache line of the
 * host), with the LRU stamps and the per-line metadata in parallel
 * arrays that only hit and maintenance paths touch. Lines are
 * addressed by a stable integer Way handle (set * assoc + way).
 *
 * All three arrays start as zero pages (ZeroArray): an all-zero line
 * is an invalid line with default metadata, so a large cache whose run
 * visits a few sets faults in only the pages those sets live on.
 */

#ifndef DESC_CACHE_ARRAY_HH
#define DESC_CACHE_ARRAY_HH

#include <algorithm>
#include <vector>

#include "common/contract.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "common/zeroarray.hh"

namespace desc::cache {

/**
 * Tag/state storage for one cache level. Meta carries the
 * level-specific line state (coherence state, dirty bit, L1 data, ...).
 */
template <typename Meta>
class SetAssocArray
{
  public:
    /** Line handle: set * assoc + way index. Stable across fills. */
    using Way = std::uint32_t;
    static constexpr Way kNoWay = ~Way{0};

    SetAssocArray(std::uint64_t capacity_bytes, unsigned assoc,
                  unsigned block_bytes)
        : _assoc(assoc), _block_bytes(block_bytes)
    {
        DESC_ASSERT(capacity_bytes % (assoc * block_bytes) == 0,
                    "capacity not divisible by assoc*block");
        _sets = unsigned(capacity_bytes / (assoc * block_bytes));
        DESC_ASSERT((_sets & (_sets - 1)) == 0,
                    "set count must be a power of two: ", _sets);
        const std::size_t lines = std::size_t(_sets) * assoc;
        _tagv = ZeroArray<std::uint64_t>(lines);
        _lru = ZeroArray<std::uint64_t>(lines);
        _meta = ZeroArray<Meta>(lines);
    }

    unsigned numSets() const { return _sets; }
    unsigned assoc() const { return _assoc; }

    unsigned
    setOf(Addr addr) const
    {
        return unsigned((addr / _block_bytes) & (_sets - 1));
    }

    Addr
    tagOf(Addr addr) const
    {
        return addr / _block_bytes / _sets;
    }

    /** Reconstruct the block address of a (valid) line. */
    Addr
    addrOf(Way way) const
    {
        const Addr tag = Addr(_tagv[way] >> 1);
        return (tag * _sets + way / _assoc) * _block_bytes;
    }

    bool valid(Way way) const { return _tagv[way] & 1; }

    Meta &meta(Way way) { return _meta[way]; }
    const Meta &meta(Way way) const { return _meta[way]; }

    /** Find a valid line matching @p addr; kNoWay on miss. */
    Way
    lookup(Addr addr) const
    {
        const Way base = Way(setOf(addr)) * _assoc;
        const std::uint64_t key = (std::uint64_t(tagOf(addr)) << 1) | 1;
        for (unsigned w = 0; w < _assoc; w++) {
            if (_tagv[base + w] == key)
                return base + w;
        }
        return kNoWay;
    }

    /**
     * Store the empty state into every line of @p set. On a set that
     * was never touched this changes nothing but how its zero pages
     * fault in: a first load of a zero page maps the kernel's shared
     * zero page and the first store then faults a second time, while
     * a first store faults once.
     */
    void
    clearSet(unsigned set)
    {
        for (Way way = Way(set) * _assoc; way < Way(set + 1) * _assoc;
             way++) {
            _tagv[way] = 0;
            _lru[way] = 0;
            _meta[way] = Meta{};
        }
    }

    /** Mark a line most-recently used. */
    void touch(Way way) { _lru[way] = ++_clock; }

    /**
     * Choose the victim way for @p addr (an invalid way if any,
     * otherwise the LRU line). The caller handles any writeback, then
     * fills the returned way via fill().
     */
    Way
    victim(Addr addr) const
    {
        const Way base = Way(setOf(addr)) * _assoc;
        Way pick = base;
        for (unsigned w = 0; w < _assoc; w++) {
            if (!valid(base + w))
                return base + w;
            if (_lru[base + w] < _lru[pick])
                pick = base + w;
        }
        return pick;
    }

    /**
     * Victim selection with an avoidance predicate over the line
     * metadata: an invalid way wins; otherwise the LRU way among
     * lines for which @p avoid is false; otherwise the overall LRU
     * way. Used by the inclusive L2 to prefer evicting lines without
     * live L1 copies.
     */
    template <typename Pred>
    Way
    victimPreferring(Addr addr, Pred &&avoid) const
    {
        const Way base = Way(setOf(addr)) * _assoc;
        Way preferred = kNoWay;
        Way overall = base;
        for (unsigned w = 0; w < _assoc; w++) {
            const Way way = base + w;
            if (!valid(way))
                return way;
            if (_lru[way] < _lru[overall])
                overall = way;
            if (!avoid(_meta[way])
                && (preferred == kNoWay || _lru[way] < _lru[preferred])) {
                preferred = way;
            }
        }
        return preferred != kNoWay ? preferred : overall;
    }

    /** Install @p addr into @p way (which may hold an evictee). */
    void
    fill(Way way, Addr addr)
    {
        _tagv[way] = (std::uint64_t(tagOf(addr)) << 1) | 1;
        _meta[way] = Meta{};
        touch(way);
    }

    void
    invalidate(Way way)
    {
        _tagv[way] = 0;
        _meta[way] = Meta{};
    }

    /**
     * Block addresses of the valid lines of @p set, least recently
     * used first: the set's whole replacement state, comparable
     * between two arrays whose LRU clocks differ (tests).
     */
    std::vector<Addr>
    setSnapshot(unsigned set) const
    {
        // Test inspection, never on a simulated path.
        std::vector<Way> ways; // analyze:allow(hot-path-alloc)
        for (unsigned w = 0; w < _assoc; w++) {
            if (valid(Way(set) * _assoc + w))
                ways.push_back(Way(set) * _assoc + w);
        }
        std::sort(ways.begin(), ways.end(),
                  [this](Way a, Way b) { return _lru[a] < _lru[b]; });
        std::vector<Addr> addrs; // analyze:allow(hot-path-alloc)
        for (Way way : ways)
            addrs.push_back(addrOf(way));
        return addrs;
    }

  private:
    unsigned _assoc;
    unsigned _block_bytes;
    unsigned _sets;
    std::uint64_t _clock = 0;

    /** tag << 1 | valid, per line; the only array probes touch. */
    ZeroArray<std::uint64_t> _tagv;
    ZeroArray<std::uint64_t> _lru;
    /** Meta{} must be all-zero bytes: that is a fresh line's state. */
    ZeroArray<Meta> _meta;
};

} // namespace desc::cache

#endif // DESC_CACHE_ARRAY_HH
