/**
 * @file
 * Chunking of cache blocks and chunk/wire assignment (Figure 4).
 *
 * A block is partitioned into fixed-size contiguous chunks; chunk i is
 * assigned to wire (i mod W) at queue slot (i div W), so with fewer
 * wires than chunks each wire transmits its queue in successive waves.
 */

#ifndef DESC_CORE_CHUNK_HH
#define DESC_CORE_CHUNK_HH

#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "common/stats.hh"

namespace desc::core {

/** Chunk values of @p block, lowest-order chunk first. */
std::vector<std::uint8_t> splitChunks(const BitVec &block,
                                      unsigned chunk_bits);

/** Reassemble a block from chunk values. */
BitVec joinChunks(const std::vector<std::uint8_t> &chunks,
                  unsigned chunk_bits, unsigned block_bits);

/** Wire transmitting chunk @p i on a bus with @p wires active wires. */
inline unsigned
chunkWire(unsigned i, unsigned wires)
{
    return i % wires;
}

/** Queue slot (wave) of chunk @p i. */
inline unsigned
chunkSlot(unsigned i, unsigned wires)
{
    return i / wires;
}

/**
 * Chunk-value statistics accumulated over a stream of blocks: the
 * value histogram of Figure 12 and the consecutive-chunk match
 * fraction (per wire) of Figure 13.
 */
class ChunkStats
{
  public:
    ChunkStats(unsigned chunk_bits, unsigned wires);

    /** Account one transferred block. */
    void observe(const BitVec &block);

    /** Fraction of chunks with value @p v (Figure 12). */
    double valueFraction(std::uint8_t v) const;

    /** Fraction of zero chunks. */
    double zeroFraction() const { return valueFraction(0); }

    /**
     * Fraction of chunks equal to the previous chunk transmitted on
     * the same wire (Figure 13).
     */
    double lastValueMatchFraction() const;

    std::uint64_t totalChunks() const { return _hist.total(); }

    const Histogram &histogram() const { return _hist; }

    /**
     * True when observe() takes the word pass for blocks of whole,
     * word-aligned waves (chunk width 1, 2, 4 or 8, and not built
     * under encoding::setReferenceEncoders(true)).
     */
    bool usesWordPass() const { return _word_pass; }

    unsigned chunkBits() const { return _chunk_bits; }
    unsigned wires() const { return _wires; }
    std::uint64_t matches() const { return _matches; }
    std::uint64_t matchCandidates() const { return _match_candidates; }

    /**
     * Reinstate previously harvested statistics (run-cache reload).
     * The per-wire last-value state is not part of the harvest, so a
     * restored object reports correct aggregates but must not
     * observe() further blocks.
     */
    void
    restore(Histogram hist, std::uint64_t matches,
            std::uint64_t match_candidates)
    {
        _hist = std::move(hist);
        _matches = matches;
        _match_candidates = match_candidates;
    }

  private:
    void observeScalar(const BitVec &block, unsigned n);
    void observeWord(const BitVec &block, unsigned n);
    bool wordObservable(unsigned n) const;
    void packPrevWords();
    void unpackPrevWords();

    unsigned _chunk_bits;
    unsigned _wires;
    bool _word_pass; //!< word pass fits the chunk width (latched)
    Histogram _hist;
    std::vector<std::uint8_t> _last;
    std::vector<bool> _last_valid;
    std::uint64_t _matches = 0;
    std::uint64_t _match_candidates = 0;

    /**
     * Word-pass state: the previous wave packed at chunk_bits per
     * wire, and whether every wire has transmitted at least once (a
     * complete block primes all wires, so one flag replaces the
     * per-wire valid bits). Exactly one of the byte/word wire-state
     * representations is fresh at a time; the observe paths convert
     * on entry when the other path ran last.
     */
    std::vector<std::uint64_t> _prev_words;
    bool _primed = false;
    bool _words_fresh = false;
};

} // namespace desc::core

#endif // DESC_CORE_CHUNK_HH
