/**
 * @file
 * Runtime frequent-value tracking for adaptive skipping.
 *
 * Section 3.3 of the paper: "We also considered adaptive techniques
 * for detecting and encoding frequent non-zero chunks at runtime;
 * however, the attainable delay and energy improvements are not
 * appreciable" because the non-zero chunk values are distributed
 * nearly uniformly (Figure 12). This tracker implements that
 * considered-and-rejected design so the claim can be reproduced
 * (bench/ablation_adaptive_skip): each wire's skip value is the most
 * frequent value recently transferred on it. Transmitter and receiver
 * run identical updates on identical histories, so the adaptive skip
 * value needs no extra communication.
 */

#ifndef DESC_CORE_ADAPTIVE_HH
#define DESC_CORE_ADAPTIVE_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace desc::core {

class AdaptiveTracker
{
  public:
    AdaptiveTracker(unsigned wires, unsigned chunk_bits)
        : _values(1u << chunk_bits),
          _counts(std::size_t(wires) * _values, 0),
          _best(wires, 0)
    {
    }

    /** Current skip value for @p wire (most frequent seen). */
    std::uint8_t best(unsigned wire) const { return _best[wire]; }

    /** Account one chunk transferred on @p wire. */
    void
    update(unsigned wire, std::uint8_t value)
    {
        std::uint8_t *row = &_counts[std::size_t(wire) * _values];
        if (++row[value] == kSaturation) {
            // Periodic decay keeps the estimate adaptive.
            for (unsigned v = 0; v < _values; v++)
                row[v] = std::uint8_t(row[v] >> 1);
        }
        // Lower value wins ties so zero stays preferred initially.
        if (row[value] > row[_best[wire]]
            || (row[value] == row[_best[wire]]
                && value < _best[wire])) {
            _best[wire] = value;
        }
    }

    void
    reset()
    {
        std::fill(_counts.begin(), _counts.end(), 0);
        std::fill(_best.begin(), _best.end(), 0);
    }

    /** Full-state equality (tx/rx lockstep tests). */
    bool
    operator==(const AdaptiveTracker &o) const
    {
        return _values == o._values && _counts == o._counts
            && _best == o._best;
    }

    bool operator!=(const AdaptiveTracker &o) const { return !(*this == o); }

  private:
    static constexpr std::uint8_t kSaturation = 255;

    unsigned _values;
    std::vector<std::uint8_t> _counts;
    std::vector<std::uint8_t> _best;
};

} // namespace desc::core

#endif // DESC_CORE_ADAPTIVE_HH
