/**
 * @file
 * Block-level behavioral model of a DESC link.
 *
 * Computes exactly the cycle count and transition counts the
 * cycle-accurate DescTransmitter/DescReceiver pair produces (the test
 * suite asserts bit-exact agreement over random block streams), but in
 * one pass over the chunks — this is what the multicore simulator uses
 * on its fast path. Implements the TransferScheme interface so the
 * cache model can swap it against the baseline encodings.
 */

#ifndef DESC_CORE_DESCSCHEME_HH
#define DESC_CORE_DESCSCHEME_HH

#include <vector>

#include "core/adaptive.hh"
#include "core/config.hh"
#include "encoding/scheme.hh"

namespace desc::core {

class DescScheme : public encoding::TransferScheme
{
  public:
    explicit DescScheme(const DescConfig &cfg);

    encoding::TransferResult transfer(const BitVec &block) override;
    unsigned dataWires() const override { return _cfg.activeWires(); }
    unsigned controlWires() const override { return 2; }
    const char *name() const override;
    void reset() override;

    const DescConfig &config() const { return _cfg; }

    /**
     * True when transfer() takes the SWAR word pass. The geometry
     * picks the pass once, at construction: power-of-two chunks, whole-
     * word waves, and no adaptive tracker or multi-wave basic mode.
     */
    bool usesWordPass() const override { return _word_pass; }

  private:
    encoding::TransferResult transferScalar(const BitVec &block);
    encoding::TransferResult transferWord(const BitVec &block);

    DescConfig _cfg;
    bool _word_pass;
    AdaptiveTracker _adaptive;
    std::vector<Cycle> _wire_time; //!< reused basic-mode scratch

    /**
     * The previous wave's chunk on each wire, the skip values of
     * last-value skipping (the only mode that reads them back). Each
     * path keeps its own form: one byte per wire on the scalar walk,
     * the packed wave (chunk i at bit i*chunk_bits) on the word pass.
     */
    std::vector<std::uint8_t> _last;
    std::vector<std::uint64_t> _last_words;
};

} // namespace desc::core

#endif // DESC_CORE_DESCSCHEME_HH
