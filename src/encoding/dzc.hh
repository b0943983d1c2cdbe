/**
 * @file
 * Dynamic zero compression (Villa, Zhang & Asanovic, MICRO 2000).
 *
 * Each segment of the bus owns a zero-indicator wire. A segment whose
 * value is zero transmits only the indicator; its data wires hold
 * their previous levels. Non-zero segments transmit normally with the
 * indicator deasserted.
 */

#ifndef DESC_ENCODING_DZC_HH
#define DESC_ENCODING_DZC_HH

#include <vector>

#include "encoding/scheme.hh"

namespace desc::encoding {

class DynamicZeroScheme : public TransferScheme
{
  public:
    explicit DynamicZeroScheme(const SchemeConfig &cfg);

    TransferResult transfer(const BitVec &block) override;
    unsigned dataWires() const override { return _wires; }
    unsigned controlWires() const override { return _num_segs; }
    const char *name() const override { return "Dynamic Zero Compression"; }
    void reset() override;

    bool usesWordPass() const override { return _word_pass; }

  private:
    TransferResult transferScalar(const BitVec &block);
    TransferResult transferWord(const BitVec &block);

    unsigned _wires;
    unsigned _block_bits;
    unsigned _beats;
    unsigned _seg_bits;
    unsigned _num_segs;
    bool _word_pass; //!< geometry gate, latched at construction

    BitVec _state;
    std::vector<bool> _zero_state;

    /**
     * Word-pass state: wire levels packed one word per 64
     * wires, and the zero-indicator levels as marker masks in the
     * same per-word layout the SWAR fold produces (one bit at each
     * segment's base position), so a beat's indicator transitions are
     * a single XOR + popcount per word.
     */
    std::vector<std::uint64_t> _state_words;
    std::vector<std::uint64_t> _zero_marks;
};

} // namespace desc::encoding

#endif // DESC_ENCODING_DZC_HH
