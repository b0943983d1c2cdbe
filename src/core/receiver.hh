/**
 * @file
 * Cycle-accurate DESC receiver (Sections 3.1, 3.2.2, 3.3).
 *
 * The receiver samples the wire bundle once per cycle through a
 * word-wide toggle-detector bank and recovers chunk values from the
 * elapsed cycle counts. Within a cycle, data strobes are processed
 * before the reset/skip strobe, so a wave-closing pulse that is
 * concurrent with the wave's last data strobe is interpreted
 * correctly; a reset/skip pulse fills every still-silent wire of the
 * open wave with its skip value (Figure 11b) and opens the next wave.
 *
 * The receiver stays a true per-cycle FSM — fault hooks may mutate
 * any wire at any cycle, so nothing can be precomputed — but each
 * cycle's work is SWAR (DESIGN.md §15): one plane XOR finds every
 * toggled wire and a count-trailing-zeros loop visits only those, in
 * ascending wire order just like the old per-wire scan.
 */

#ifndef DESC_CORE_RECEIVER_HH
#define DESC_CORE_RECEIVER_HH

#include <vector>

#include "common/bitvec.hh"
#include "common/contract.hh"
#include "core/config.hh"
#include "core/adaptive.hh"
#include "core/toggle.hh"
#include "core/wires.hh"

namespace desc::core {

class DescReceiver
{
  public:
    explicit DescReceiver(const DescConfig &cfg);

    /** Sample the wire levels of one clock cycle. */
    void observe(const WireBundle &wires);

    /** True once a complete block has been recovered. */
    bool blockReady() const { return _ready; }

    /** Take the recovered block; clears blockReady(). */
    BitVec takeBlock();

    /**
     * Drop the recovered block without materializing it; clears
     * blockReady() just like takeBlock().
     */
    void
    discardBlock()
    {
        DESC_ASSERT(_ready, "discardBlock with no block ready");
        _ready = false;
    }

    /** The receiver's last-value skip table (mirrors the TX). */
    const std::vector<std::uint8_t> &lastValues() const { return _last; }

    /** The frequent-value tracker driving adaptive skipping. */
    const AdaptiveTracker &adaptive() const { return _adaptive; }

    void reset();

  private:
    std::uint8_t skipValueFor(unsigned wire) const;
    void openWave();
    void finalizeWave();

    DescConfig _cfg;

    /** Lifetime observed-cycle count (trace timestamps only). */
    std::uint64_t _ticks = 0;

    ToggleDetectorBank _data_bank;
    ToggleDetector _reset_td;
    ToggleDetector _sync_td;

    /** Per-cycle toggle plane (detector-bank output scratch). */
    WirePlane _toggles;

    std::vector<std::uint8_t> _chunks;
    std::vector<std::uint8_t> _last;
    AdaptiveTracker _adaptive;
    bool _ready = false;

    // Basic (no-skip) mode: a wire's elapsed count is the block-local
    // time minus its last strobe time (both reinitialized by the
    // opening reset pulse).
    bool _in_block = false;
    unsigned _t_in_block = 0;
    std::vector<unsigned> _last_strobe;
    std::vector<unsigned> _next_slot;
    unsigned _received = 0;

    // Wave machine (skip modes).
    bool _wave_open = false;
    unsigned _wave = 0;
    unsigned _elapsed = 0;
    WirePlane _got;
    std::vector<std::uint8_t> _skipv;
    unsigned _wave_got = 0;
};

} // namespace desc::core

#endif // DESC_CORE_RECEIVER_HH
