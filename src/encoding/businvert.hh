/**
 * @file
 * Bus-invert coding (Stan & Burleson) and its zero-skipping variants.
 *
 * The bus is divided into segments; each segment owns an invert line.
 * If transmitting a beat plainly would flip more wires than
 * transmitting its complement (counting the invert line itself), the
 * complement is sent. The paper extends this baseline with zero
 * skipping in two flavors (Section 4.1):
 *
 *  - sparse: one extra skip wire per segment signals that the segment
 *    value is zero and the data wires simply hold their old levels;
 *  - encoded: the per-segment mode (plain/inverted/skipped) is packed
 *    into a dense binary mode bus, trading wires for extra transitions
 *    and encode/decode latency.
 */

#ifndef DESC_ENCODING_BUSINVERT_HH
#define DESC_ENCODING_BUSINVERT_HH

#include <vector>

#include "encoding/scheme.hh"

namespace desc::encoding {

class BusInvertScheme : public TransferScheme
{
  public:
    enum class Mode { Plain, ZeroSkipSparse, ZeroSkipEncoded };

    BusInvertScheme(const SchemeConfig &cfg, Mode mode);

    TransferResult transfer(const BitVec &block) override;
    unsigned dataWires() const override { return _wires; }
    unsigned controlWires() const override;
    const char *name() const override;
    void reset() override;

    bool usesWordPass() const override { return _word_pass; }

  private:
    /** Per-segment transmission decision for one beat. */
    enum class SegMode : std::uint8_t { AsIs = 0, Inverted = 1, Skip = 2 };

    /**
     * Word-pass state for one 64-wire slice of the bus: the data wire
     * levels, and the invert and sparse skip line levels as marker
     * words with each segment's line at its lane's LSB.
     */
    struct WordState
    {
        std::uint64_t wires = 0;
        std::uint64_t inv = 0;
        std::uint64_t skip = 0;
    };

    TransferResult transferScalar(const BitVec &block);
    /** The word pass for B-bit segments (B a power of two). */
    template <unsigned B> TransferResult transferWord(const BitVec &block);

    unsigned _wires;
    unsigned _block_bits;
    unsigned _beats;
    unsigned _seg_bits;
    unsigned _num_segs;
    Mode _mode;
    bool _word_pass; //!< geometry gate, latched at construction

    BitVec _state;                    //!< data wire levels
    std::vector<bool> _inv_state;     //!< invert line levels
    std::vector<bool> _skip_state;    //!< sparse skip line levels
    std::vector<std::uint32_t> _mode_state; //!< encoded mode bus words
    std::vector<SegMode> _seg_modes;  //!< reused per-beat scratch

    std::vector<WordState> _words;          //!< word-pass wire state
    std::vector<std::uint32_t> _mode_next;  //!< word-pass mode scratch
};

} // namespace desc::encoding

#endif // DESC_ENCODING_BUSINVERT_HH
