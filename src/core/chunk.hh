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

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "common/contract.hh"
#include "common/stats.hh"
#include "common/types.hh"

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
 * The waves of a block as packed words (Figure 4). Wave g carries
 * chunks g*W .. g*W+W-1 of a W-wire bus; the chunk on wire w sits at
 * bit w*chunk_bits of the wave's words(), and bits past the wave's
 * width read zero. A block's single wave, and waves that are whole
 * words, are read in place; any other wave (32 one-bit wires, say) is
 * gathered into a scratch word array that the next wave() call
 * overwrites. DescScheme and ChunkStats both walk blocks through it.
 */
class WaveWords
{
  public:
    WaveWords(unsigned block_bits, unsigned wave_bits)
        : _wave_bits(wave_bits), _words((wave_bits + 63) / 64),
          _in_place(wave_bits == block_bits || wave_bits % 64 == 0),
          _scratch(_in_place ? 0 : _words)
    {
        DESC_ASSERT(wave_bits >= 1 && block_bits % wave_bits == 0,
                    "a ", block_bits, "-bit block is not whole ",
                    wave_bits, "-bit waves");
    }

    /** Words per wave. */
    unsigned words() const { return _words; }

    /** Wave @p g of @p block. */
    const std::uint64_t *
    wave(const BitVec &block, unsigned g)
    {
        if (_in_place)
            return block.words().data() + std::size_t(g) * _words;
        const unsigned base = g * _wave_bits;
        for (unsigned k = 0; k < _words; k++) {
            const unsigned len = std::min(64u, _wave_bits - 64 * k);
            _scratch[k] = block.fieldUnchecked(base + 64 * k, len);
        }
        return _scratch.data();
    }

  private:
    unsigned _wave_bits;
    unsigned _words;
    bool _in_place;
    std::vector<std::uint64_t> _scratch;
};

/**
 * Chunk-value statistics accumulated over a stream of blocks: the
 * value histogram of Figure 12 and the consecutive-chunk match
 * fraction (per wire) of Figure 13.
 */
class ChunkStats
{
  public:
    /**
     * Statistics of @p block_bits-bit blocks of @p chunk_bits-bit
     * chunks (1, 2, 4 or 8) on @p wires wires; a block with fewer
     * chunks than wires uses one wire per chunk.
     */
    ChunkStats(unsigned chunk_bits, unsigned wires,
               unsigned block_bits = kBlockBits);

    /** True if the constructor accepts this geometry. */
    static bool fits(unsigned chunk_bits, unsigned wires,
                     unsigned block_bits = kBlockBits);

    /** Account one transferred block of the constructed width. */
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
     * True when observe() takes the word pass; false only for an
     * object built under encoding::setReferenceEncoders(true).
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
        DESC_ASSERT(hist.numBins() == _hist.numBins(), "restored ",
                    hist.numBins(), "-bin histogram for ", _chunk_bits,
                    "-bit chunks");
        _hist = std::move(hist);
        _matches = matches;
        _match_candidates = match_candidates;
    }

  private:
    void observeScalar(const BitVec &block);
    void observeWord(const BitVec &block);

    unsigned _chunk_bits;
    unsigned _wires;
    unsigned _block_bits;
    unsigned _active; //!< wires carrying chunks
    bool _word_pass;
    Histogram _hist;
    std::uint64_t _matches = 0;
    std::uint64_t _match_candidates = 0;

    /** A block was observed, so every active wire has a last chunk. */
    bool _primed = false;

    WaveWords _waves;

    /**
     * The previous chunk on each wire, in the engine's own form: one
     * byte per wire on the scalar walk, the packed wave on the word
     * pass.
     */
    std::vector<std::uint8_t> _last;
    std::vector<std::uint64_t> _prev_words;
};

} // namespace desc::core

#endif // DESC_CORE_CHUNK_HH
