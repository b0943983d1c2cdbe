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
#include "core/chunk.hh"
#include "core/config.hh"
#include "encoding/scheme.hh"

namespace desc::core {

/**
 * The word pass over 1, 2, 4 or 8-bit chunks, for any wire count and
 * skip mode; the ticked DescLink models other chunk widths.
 */
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

    /** DescScheme has no other engine. */
    bool usesWordPass() const override { return true; }

  private:
    void adaptWave(const std::uint64_t *cur);

    DescConfig _cfg;
    WaveWords _waves;
    AdaptiveTracker _adaptive;

    /**
     * Each wire's skip value for the next wave, packed like a wave:
     * the previous wave (last-value skipping) or the tracker's most
     * frequent value (adaptive). Zero skipping needs none.
     */
    std::vector<std::uint64_t> _skip;

    /** Basic mode: each wire's chunk sum so far, in 16-bit lanes. */
    std::vector<std::uint64_t> _wire_sums;
};

} // namespace desc::core

#endif // DESC_CORE_DESCSCHEME_HH
