/**
 * @file
 * Generic set-associative array with LRU replacement.
 *
 * Storage is struct-of-arrays: the packed tag+valid words of a set sit
 * contiguously (a 4-way probe reads 32 bytes — one cache line of the
 * host), with the LRU stamps and the per-line metadata in parallel
 * arrays that only hit and maintenance paths touch. Lines are
 * addressed by a stable integer Way handle (set * assoc + way).
 */

#ifndef DESC_CACHE_ARRAY_HH
#define DESC_CACHE_ARRAY_HH

#include <vector>

#include "common/contract.hh"
#include "common/log.hh"
#include "common/types.hh"

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
        _tagv.assign(lines, 0);
        _lru.assign(lines, 0);
        _meta.resize(lines);
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

    /** Iterate all valid lines (for inclusive-eviction bookkeeping). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (Way way = 0; way < Way(_tagv.size()); way++) {
            if (valid(way))
                fn(way);
        }
    }

  private:
    unsigned _assoc;
    unsigned _block_bytes;
    unsigned _sets;
    std::uint64_t _clock = 0;

    /** tag << 1 | valid, per line; the only array probes touch. */
    std::vector<std::uint64_t> _tagv;
    std::vector<std::uint64_t> _lru;
    std::vector<Meta> _meta;
};

} // namespace desc::cache

#endif // DESC_CACHE_ARRAY_HH
