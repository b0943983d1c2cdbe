#include "core/chunk.hh"

#include <algorithm>
#include <bit>

#include "common/contract.hh"
#include "common/log.hh"
#include "encoding/scheme.hh"
#include "encoding/swar.hh"

namespace desc::core {

namespace swar = encoding::swar;

std::vector<std::uint8_t>
splitChunks(const BitVec &block, unsigned chunk_bits)
{
    DESC_ASSERT(chunk_bits >= 1 && chunk_bits <= 8,
                "chunk size must be 1..8 bits");
    DESC_ASSERT(block.width() % chunk_bits == 0,
                "block width not divisible by chunk size");
    unsigned n = block.width() / chunk_bits;
    // Test/example convenience, not transfer-path work; the link's
    // fast path never materializes chunk vectors.
    std::vector<std::uint8_t> chunks(n); // analyze:allow(hot-path-alloc)
    BitCursor cur(block);
    for (unsigned i = 0; i < n; i++)
        chunks[i] = std::uint8_t(cur.next(chunk_bits));
    return chunks;
}

BitVec
joinChunks(const std::vector<std::uint8_t> &chunks, unsigned chunk_bits,
           unsigned block_bits)
{
    DESC_ASSERT(chunks.size() * chunk_bits == block_bits,
                "chunk count does not cover the block");
    BitVec block(block_bits);
    for (unsigned i = 0; i < chunks.size(); i++)
        block.setField(i * chunk_bits, chunk_bits, chunks[i]);
    return block;
}

bool
ChunkStats::fits(unsigned chunk_bits, unsigned wires, unsigned block_bits)
{
    if (!swar::supportedChunk(chunk_bits) || wires == 0
        || block_bits % chunk_bits != 0)
        return false;
    const unsigned n = block_bits / chunk_bits;
    return n % std::min(wires, n) == 0;
}

namespace {

/** Wires that carry chunks, once the geometry is known to fit. */
unsigned
activeWires(unsigned chunk_bits, unsigned wires, unsigned block_bits)
{
    DESC_ASSERT(ChunkStats::fits(chunk_bits, wires, block_bits),
                "no whole waves of ", chunk_bits, "-bit chunks on ", wires,
                " wires in a ", block_bits, "-bit block");
    return std::min(wires, block_bits / chunk_bits);
}

} // namespace

ChunkStats::ChunkStats(unsigned chunk_bits, unsigned wires,
                       unsigned block_bits)
    : _chunk_bits(chunk_bits), _wires(wires), _block_bits(block_bits),
      _active(activeWires(chunk_bits, wires, block_bits)),
      _word_pass(!encoding::referenceEncoders()),
      _hist(1u << chunk_bits),
      _waves(block_bits, _active * chunk_bits)
{
    if (_word_pass)
        _prev_words.assign(_waves.words(), 0);
    else
        _last.assign(_active, 0);
}

void
ChunkStats::observe(const BitVec &block)
{
    DESC_ASSERT(block.width() == _block_bits, "observed a ", block.width(),
                "-bit block, built for ", _block_bits);
    if (_word_pass)
        observeWord(block);
    else
        observeScalar(block);
    _primed = true;
}

void
ChunkStats::observeScalar(const BitVec &block)
{
    const unsigned n = _block_bits / _chunk_bits;
    BitCursor cur(block);
    for (unsigned i = 0; i < n; i++) {
        const unsigned w = i % _active;
        const auto chunk = std::uint8_t(cur.next(_chunk_bits));
        _hist.sample(chunk);
        if (_primed || i >= _active) {
            _match_candidates++;
            if (_last[w] == chunk)
                _matches++;
        }
        _last[w] = chunk;
    }
}

namespace {

/**
 * Per-value chunk counts of one word (only the low @p chunks chunks).
 * B == 1 short-circuits to a popcount; wider chunks extract serially
 * into the local count array.
 */
template <unsigned B>
inline void
countWordChunks(std::uint64_t x, unsigned chunks, std::uint32_t *counts)
{
    if constexpr (B == 1) {
        const std::uint64_t valid = chunks >= 64
            ? ~std::uint64_t{0}
            : (std::uint64_t{1} << chunks) - 1;
        const unsigned ones = unsigned(std::popcount(x & valid));
        counts[1] += ones;
        counts[0] += chunks - ones;
    } else {
        constexpr std::uint64_t mask = (std::uint64_t{1} << B) - 1;
        for (unsigned k = 0; k < chunks; k++) {
            counts[x & mask]++;
            x >>= B;
        }
    }
}

using CountFn = void (*)(std::uint64_t, unsigned, std::uint32_t *);
using DiffFn = unsigned (*)(std::uint64_t);

template <unsigned B>
inline unsigned
diffChunks(std::uint64_t d)
{
    return swar::nonzeroChunks<B>(d);
}

constexpr CountFn kCount[4] = {countWordChunks<1>, countWordChunks<2>,
                               countWordChunks<4>, countWordChunks<8>};
constexpr DiffFn kDiff[4] = {diffChunks<1>, diffChunks<2>, diffChunks<4>,
                             diffChunks<8>};

} // namespace

void
ChunkStats::observeWord(const BitVec &block)
{
    const unsigned lb = unsigned(std::countr_zero(_chunk_bits));
    const unsigned waves = _block_bits / (_active * _chunk_bits);
    const unsigned wpw = _waves.words();
    const unsigned cpw = 64 / _chunk_bits; // chunks per full word

    std::uint32_t counts[256] = {};
    std::uint64_t diffs = 0;

    for (unsigned g = 0; g < waves; g++) {
        const std::uint64_t *cur = _waves.wave(block, g);
        // Histogram: padding chunks past the wave's real width must
        // not be sampled, so the final word counts only its remainder.
        unsigned left = _active;
        for (unsigned j = 0; j < wpw; j++) {
            kCount[lb](cur[j], std::min(left, cpw), counts);
            left -= std::min(left, cpw);
        }
        // Matches against the previous chunk on each wire: the
        // previous wave, of this block or the last one. Padding bits
        // are zero on both sides and cannot produce a spurious
        // difference.
        if (g > 0 || _primed) {
            for (unsigned j = 0; j < wpw; j++) {
                const std::uint64_t d = cur[j] ^ _prev_words[j];
                if (d)
                    diffs += kDiff[lb](d);
            }
        }
        std::copy_n(cur, wpw, _prev_words.begin());
    }

    for (unsigned v = 0; v < (1u << _chunk_bits); v++) {
        if (counts[v])
            _hist.sample(v, counts[v]);
    }
    const unsigned candidate_waves = _primed ? waves : waves - 1;
    _match_candidates += std::uint64_t(candidate_waves) * _active;
    _matches += std::uint64_t(candidate_waves) * _active - diffs;
}

double
ChunkStats::valueFraction(std::uint8_t v) const
{
    return _hist.fraction(v);
}

double
ChunkStats::lastValueMatchFraction() const
{
    return _match_candidates
        ? double(_matches) / double(_match_candidates)
        : 0.0;
}

} // namespace desc::core
