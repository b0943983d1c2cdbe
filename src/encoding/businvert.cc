#include "encoding/businvert.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "common/contract.hh"
#include "common/log.hh"
#include "encoding/swar.hh"

namespace desc::encoding {

namespace {

/** Segments packed per 32-bit word of the encoded mode bus (3^20 fits
 *  in 32 bits, giving ~1.6 mode bits per segment). */
constexpr unsigned kSegsPerModeWord = 20;

} // namespace

BusInvertScheme::BusInvertScheme(const SchemeConfig &cfg, Mode mode)
    : _wires(cfg.bus_wires), _block_bits(cfg.block_bits),
      _seg_bits(cfg.segment_bits), _mode(mode), _state(cfg.bus_wires)
{
    DESC_ASSERT(_seg_bits > 0 && _seg_bits <= 64,
                "segment size must be 1..64 bits: ", _seg_bits);
    DESC_ASSERT(_wires % _seg_bits == 0,
                "bus width ", _wires, " not divisible by segment ",
                _seg_bits);
    _beats = (_block_bits + _wires - 1) / _wires;
    _num_segs = _wires / _seg_bits;
    _inv_state.assign(_num_segs, false);
    _skip_state.assign(_num_segs, false);
    _mode_state.assign((_num_segs + kSegsPerModeWord - 1) / kSegsPerModeWord,
                       0);
    _seg_modes.assign(_num_segs, SegMode::AsIs);
    _word_pass = !referenceEncoders()
        && swar::wholeWordSegments(_wires, _seg_bits);
    if (_word_pass) {
        _words.assign(_wires / 64, WordState{});
        _mode_next.assign(_mode_state.size(), 0);
    }
}

unsigned
BusInvertScheme::controlWires() const
{
    switch (_mode) {
      case Mode::Plain:
        return _num_segs;
      case Mode::ZeroSkipSparse:
        return 2 * _num_segs;
      case Mode::ZeroSkipEncoded:
        return unsigned(_mode_state.size()) * 32;
    }
    return 0;
}

const char *
BusInvertScheme::name() const
{
    switch (_mode) {
      case Mode::Plain:
        return "Bus Invert Coding";
      case Mode::ZeroSkipSparse:
        return "Zero Skipped Bus Invert";
      case Mode::ZeroSkipEncoded:
        return "Encoded Zero Skipped Bus Invert";
    }
    return "?";
}

namespace {

/** One word's chosen segment modes as lane-LSB marker words. */
struct WordModes
{
    std::uint64_t inverted;
    std::uint64_t skip;
};

/**
 * One 64-bit word of one beat: decide every B-bit segment at once and
 * update its wires and lines. These identities restate the scalar
 * loop's cost comparison for a lane with d = popcount(v ^ old) and
 * invert line i:
 *
 *  - inverting costs B - d + !i against d + i, so the segment inverts
 *    iff 2(d + i) > B + 1, i.e. d + i >= B/2 + 1 for even B (one
 *    biased add, read at the lane MSB) and d & i for B = 1;
 *  - an encoded-mode segment skips iff v == 0; a sparse one also
 *    skips then, unless its skip line is low and the wires already
 *    read 0 for free (old == 0 with i low, or old all-ones with i
 *    high);
 *  - a skipped segment holds its wires and invert line.
 *
 * Padding segments past the block read zero, exactly as the scalar
 * loop treats them.
 */
template <unsigned B>
inline WordModes
bicWord(std::uint64_t v, std::uint64_t &wires, std::uint64_t &inv,
        std::uint64_t &skip_line, BusInvertScheme::Mode mode,
        TransferResult &result)
{
    using Mode = BusInvertScheme::Mode;
    constexpr std::uint64_t lsb = swar::laneLsbMask(B);
    constexpr std::uint64_t seg_ones = B == 64
        ? ~std::uint64_t{0}
        : (std::uint64_t{1} << B) - 1;
    const std::uint64_t old = wires;
    const std::uint64_t x = v ^ old;

    std::uint64_t invert;
    if constexpr (B == 1) {
        invert = x & inv;
    } else {
        // d + i + bias reaches the lane MSB iff d + i >= B/2 + 1; the
        // sum stays below 2^B, so no lane carries into the next.
        constexpr std::uint64_t bias =
            lsb * ((std::uint64_t{1} << (B - 1)) - (B / 2 + 1));
        invert = ((swar::lanePopcount<B>(x) + inv + bias) >> (B - 1)) & lsb;
    }

    std::uint64_t skip = 0;
    if (mode != Mode::Plain) {
        skip = lsb & ~swar::nonzeroChunkMarkers<B>(v);
        if (mode == Mode::ZeroSkipSparse) {
            const std::uint64_t old_zero =
                lsb & ~swar::nonzeroChunkMarkers<B>(old);
            const std::uint64_t old_ones =
                lsb & ~swar::nonzeroChunkMarkers<B>(~old);
            const std::uint64_t free =
                ~skip_line & ((old_zero & ~inv) | (old_ones & inv));
            skip &= ~free;
            result.control_flips += swar::markerCount<B>(skip ^ skip_line);
            skip_line = skip;
        }
        result.skipped += swar::markerCount<B>(skip);
    }

    const std::uint64_t inverted = invert & ~skip;
    const std::uint64_t asis = lsb & ~(invert | skip);
    // Wires that toggle: the differing bits of as-is segments and the
    // agreeing bits of inverted ones; skipped segments hold.
    const std::uint64_t toggle =
        (x & (asis * seg_ones)) | (~x & (inverted * seg_ones));
    result.data_flips += swar::wordPopcount(toggle);
    wires = old ^ toggle;

    const std::uint64_t new_inv = (inv & skip) | inverted;
    result.control_flips += swar::markerCount<B>(inv ^ new_inv);
    inv = new_inv;
    return {inverted, skip};
}

/** 3^k for each base-3 digit of a mode-bus word. */
constexpr std::array<std::uint32_t, kSegsPerModeWord> kPow3 = [] {
    std::array<std::uint32_t, kSegsPerModeWord> p{};
    std::uint32_t v = 1;
    for (auto &e : p) {
        e = v;
        v *= 3;
    }
    return p;
}();

} // namespace

template <unsigned B>
TransferResult
BusInvertScheme::transferWord(const BitVec &block)
{
    TransferResult result;
    result.cycles = _beats + (_mode == Mode::ZeroSkipEncoded ? 2 : 1);

    constexpr unsigned segs_per_word = 64 / B;
    const bool encoded = _mode == Mode::ZeroSkipEncoded;
    const auto &words = block.words();
    const unsigned wpb = _wires / 64; // words per beat
    for (unsigned beat = 0; beat < _beats; beat++) {
        if (encoded)
            std::fill(_mode_next.begin(), _mode_next.end(), 0);
        const std::size_t base = std::size_t(beat) * wpb;
        for (unsigned j = 0; j < wpb; j++) {
            // Beats can run past the block's storage when the bus is
            // wider than the remainder; those segments read zero.
            const std::size_t idx = base + j;
            const std::uint64_t v = idx < words.size() ? words[idx] : 0;
            WordState &st = _words[j];
            const WordModes m =
                bicWord<B>(v, st.wires, st.inv, st.skip, _mode, result);
            if (!encoded)
                continue;
            // Add each inverted (digit 1) or skipped (digit 2)
            // segment's base-3 digit to its mode-bus word.
            for (std::uint64_t set = m.inverted | m.skip; set;
                 set &= set - 1) {
                const unsigned bit = unsigned(std::countr_zero(set));
                const unsigned s = j * segs_per_word + bit / B;
                const std::uint32_t digit = (m.skip >> bit) & 1 ? 2 : 1;
                _mode_next[s / kSegsPerModeWord] +=
                    digit * kPow3[s % kSegsPerModeWord];
            }
        }
        // The dense mode bus re-transmits all segment modes each beat;
        // its transitions are control flips.
        if (encoded) {
            for (std::size_t w = 0; w < _mode_state.size(); w++) {
                result.control_flips +=
                    swar::wordPopcount(_mode_next[w] ^ _mode_state[w]);
                _mode_state[w] = _mode_next[w];
            }
        }
    }
    return result;
}

TransferResult
BusInvertScheme::transfer(const BitVec &block)
{
    using Pass = TransferResult (BusInvertScheme::*)(const BitVec &);
    static constexpr Pass kWordPass[7] = {
        &BusInvertScheme::transferWord<1>,
        &BusInvertScheme::transferWord<2>,
        &BusInvertScheme::transferWord<4>,
        &BusInvertScheme::transferWord<8>,
        &BusInvertScheme::transferWord<16>,
        &BusInvertScheme::transferWord<32>,
        &BusInvertScheme::transferWord<64>,
    };
    DESC_ASSERT(block.width() == _block_bits, "block width mismatch");
    if (_word_pass)
        return (this->*kWordPass[std::countr_zero(_seg_bits)])(block);
    return transferScalar(block);
}

TransferResult
BusInvertScheme::transferScalar(const BitVec &block)
{
    TransferResult result;
    // Encode/decode pipeline stage for the non-trivial codings
    // (responsible for the ~1% execution-time overhead in Figure 20).
    result.cycles = _beats + (_mode == Mode::ZeroSkipEncoded ? 2 : 1);

    const std::uint64_t seg_mask = _seg_bits == 64
        ? ~std::uint64_t{0}
        : ((std::uint64_t{1} << _seg_bits) - 1);

    for (unsigned beat = 0; beat < _beats; beat++) {
        unsigned beat_base = beat * _wires;
        for (unsigned s = 0; s < _num_segs; s++) {
            unsigned pos = beat_base + s * _seg_bits;
            std::uint64_t value = 0;
            if (pos < _block_bits) {
                unsigned avail = std::min(_seg_bits, _block_bits - pos);
                value = block.fieldUnchecked(pos, avail);
            }
            std::uint64_t old =
                _state.fieldUnchecked(s * _seg_bits, _seg_bits);

            // Cost of each transmission mode, counting the control
            // wires the mode would have to flip.
            bool skip_supported = _mode != Mode::Plain;
            bool sparse = _mode == Mode::ZeroSkipSparse;

            unsigned cost_plain = std::popcount(value ^ old)
                + (_inv_state[s] ? 1 : 0)
                + (sparse && _skip_state[s] ? 1 : 0);
            unsigned cost_inv = std::popcount((~value & seg_mask) ^ old)
                + (_inv_state[s] ? 0 : 1)
                + (sparse && _skip_state[s] ? 1 : 0);
            unsigned cost_skip = sparse && !_skip_state[s] ? 1 : 0;

            SegMode chosen;
            if (skip_supported && value == 0 &&
                cost_skip <= std::min(cost_plain, cost_inv)) {
                chosen = SegMode::Skip;
            } else if (cost_inv < cost_plain) {
                chosen = SegMode::Inverted;
            } else {
                chosen = SegMode::AsIs;
            }
            _seg_modes[s] = chosen;

            switch (chosen) {
              case SegMode::AsIs:
                result.data_flips += std::popcount(value ^ old);
                _state.setFieldUnchecked(s * _seg_bits, _seg_bits, value);
                if (_inv_state[s]) {
                    result.control_flips++;
                    _inv_state[s] = false;
                }
                if (sparse && _skip_state[s]) {
                    result.control_flips++;
                    _skip_state[s] = false;
                }
                break;
              case SegMode::Inverted: {
                std::uint64_t coded = ~value & seg_mask;
                result.data_flips += std::popcount(coded ^ old);
                _state.setFieldUnchecked(s * _seg_bits, _seg_bits, coded);
                if (!_inv_state[s]) {
                    result.control_flips++;
                    _inv_state[s] = true;
                }
                if (sparse && _skip_state[s]) {
                    result.control_flips++;
                    _skip_state[s] = false;
                }
                break;
              }
              case SegMode::Skip:
                // Data and invert wires hold; receiver substitutes 0.
                result.skipped++;
                if (sparse && !_skip_state[s]) {
                    result.control_flips++;
                    _skip_state[s] = true;
                }
                break;
            }
        }

        // The dense mode bus re-transmits all segment modes each beat
        // as a packed base-3 number; its transitions are control flips.
        if (_mode == Mode::ZeroSkipEncoded) {
            for (unsigned w = 0; w < _mode_state.size(); w++) {
                std::uint32_t packed = 0;
                unsigned lo = w * kSegsPerModeWord;
                unsigned hi = std::min<unsigned>(lo + kSegsPerModeWord,
                                                 _num_segs);
                for (unsigned s = hi; s-- > lo;)
                    packed = packed * 3 + std::uint32_t(_seg_modes[s]);
                result.control_flips += std::popcount(packed ^
                                                      _mode_state[w]);
                _mode_state[w] = packed;
            }
        }
    }
    return result;
}

void
BusInvertScheme::reset()
{
    _state.clear();
    std::fill(_inv_state.begin(), _inv_state.end(), false);
    std::fill(_skip_state.begin(), _skip_state.end(), false);
    std::fill(_mode_state.begin(), _mode_state.end(), 0);
    std::fill(_words.begin(), _words.end(), WordState{});
}

} // namespace desc::encoding
