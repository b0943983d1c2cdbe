#include "encoding/dzc.hh"

#include <algorithm>
#include <bit>

#include "common/contract.hh"
#include "common/log.hh"
#include "encoding/swar.hh"

namespace desc::encoding {

DynamicZeroScheme::DynamicZeroScheme(const SchemeConfig &cfg)
    : _wires(cfg.bus_wires), _block_bits(cfg.block_bits),
      _seg_bits(cfg.segment_bits), _state(cfg.bus_wires)
{
    DESC_ASSERT(_seg_bits > 0 && _seg_bits <= 64,
                "segment size must be 1..64 bits: ", _seg_bits);
    DESC_ASSERT(_wires % _seg_bits == 0,
                "bus width not divisible by segment size");
    _beats = (_block_bits + _wires - 1) / _wires;
    _num_segs = _wires / _seg_bits;
    _zero_state.assign(_num_segs, false);
    _word_pass = !referenceEncoders()
        && swar::wholeWordSegments(_wires, _seg_bits);
    if (_word_pass) {
        _state_words.assign(_wires / 64, 0);
        _zero_marks.assign(_wires / 64, 0);
    }
}

TransferResult
DynamicZeroScheme::transfer(const BitVec &block)
{
    DESC_ASSERT(block.width() == _block_bits, "block width mismatch");
    if (_word_pass)
        return transferWord(block);
    return transferScalar(block);
}

TransferResult
DynamicZeroScheme::transferScalar(const BitVec &block)
{
    TransferResult result;
    result.cycles = _beats + 1; // zero-detect pipeline stage

    for (unsigned beat = 0; beat < _beats; beat++) {
        unsigned beat_base = beat * _wires;
        for (unsigned s = 0; s < _num_segs; s++) {
            unsigned pos = beat_base + s * _seg_bits;
            std::uint64_t value = 0;
            if (pos < _block_bits) {
                unsigned avail = std::min(_seg_bits, _block_bits - pos);
                value = block.fieldUnchecked(pos, avail);
            }

            if (value == 0) {
                // Only the indicator may switch; data wires hold.
                if (!_zero_state[s]) {
                    result.control_flips++;
                    _zero_state[s] = true;
                }
                result.skipped++;
            } else {
                if (_zero_state[s]) {
                    result.control_flips++;
                    _zero_state[s] = false;
                }
                std::uint64_t old =
                    _state.fieldUnchecked(s * _seg_bits, _seg_bits);
                result.data_flips += std::popcount(value ^ old);
                _state.setFieldUnchecked(s * _seg_bits, _seg_bits, value);
            }
        }
    }
    return result;
}

namespace {

/**
 * One 64-bit word of one beat: count indicator transitions, skipped
 * (zero) segments, and data flips on the non-zero segments, holding
 * zero segments' wires at their previous levels. Padding segments
 * past the block read zero, exactly as the scalar loop treats them.
 */
template <unsigned SB>
inline void
dzcWord(std::uint64_t x, std::uint64_t &state, std::uint64_t &zero_marks,
        TransferResult &result)
{
    constexpr std::uint64_t lsb = swar::laneLsbMask(SB);
    constexpr std::uint64_t seg_ones = SB == 64
        ? ~std::uint64_t{0}
        : (std::uint64_t{1} << SB) - 1;
    const std::uint64_t nz = swar::nonzeroChunkMarkers<SB>(x);
    const std::uint64_t zero = lsb & ~nz;
    // One indicator per segment: a flip whenever its level changes.
    result.control_flips += swar::markerCount<SB>(zero ^ zero_marks);
    zero_marks = zero;
    result.skipped += swar::markerCount<SB>(zero);
    // Non-zero segments drive their new value; zero segments hold.
    const std::uint64_t drive = nz * seg_ones;
    result.data_flips += swar::wordPopcount((x ^ state) & drive);
    state = (state & ~drive) | (x & drive);
}

using DzcWordFn = void (*)(std::uint64_t, std::uint64_t &, std::uint64_t &,
                           TransferResult &);

constexpr DzcWordFn kDzcWord[7] = {dzcWord<1>,  dzcWord<2>,  dzcWord<4>,
                                   dzcWord<8>,  dzcWord<16>, dzcWord<32>,
                                   dzcWord<64>};

} // namespace

TransferResult
DynamicZeroScheme::transferWord(const BitVec &block)
{
    TransferResult result;
    result.cycles = _beats + 1; // zero-detect pipeline stage

    const unsigned fn = unsigned(std::countr_zero(_seg_bits));
    const DzcWordFn word_fn = kDzcWord[fn];
    const auto &words = block.words();
    const unsigned wpb = _wires / 64; // words per beat
    for (unsigned beat = 0; beat < _beats; beat++) {
        const std::size_t base = std::size_t(beat) * wpb;
        for (unsigned j = 0; j < wpb; j++) {
            // Beats can run past the block's storage when the bus is
            // wider than the remainder; those segments read zero.
            const std::size_t idx = base + j;
            const std::uint64_t x = idx < words.size() ? words[idx] : 0;
            word_fn(x, _state_words[j], _zero_marks[j], result);
        }
    }
    return result;
}

void
DynamicZeroScheme::reset()
{
    _state.clear();
    std::fill(_zero_state.begin(), _zero_state.end(), false);
    std::fill(_state_words.begin(), _state_words.end(), 0);
    std::fill(_zero_marks.begin(), _zero_marks.end(), 0);
}

} // namespace desc::encoding
