/**
 * @file
 * The toggle circuits of Figure 8: generator, detector, regenerator.
 *
 * DESC signals by toggling wire levels rather than driving absolute
 * values; these three primitives are the building blocks of every
 * strobe path in the transmitter, receiver, and the shared vertical
 * H-tree segments.
 */

#ifndef DESC_CORE_TOGGLE_HH
#define DESC_CORE_TOGGLE_HH

#include <cstdint>

#include "core/wires.hh"

namespace desc::core {

/**
 * Toggle generator (Figure 8a): a flop whose output inverts every
 * time it is fired.
 */
class ToggleGenerator
{
  public:
    /** Invert the driven level (send one strobe). */
    void fire() { _level = !_level; }

    bool level() const { return _level; }
    void reset() { _level = false; }

  private:
    bool _level = false;
};

/**
 * Toggle detector (Figure 8b): compares the wire against a delayed
 * copy of itself and reports a pulse whenever the level changed.
 */
class ToggleDetector
{
  public:
    /** Sample the wire; true if a toggle arrived this cycle. */
    bool
    sample(bool level)
    {
        bool toggled = level != _prev;
        _prev = level;
        return toggled;
    }

    void reset() { _prev = false; }

  private:
    bool _prev = false;
};

/**
 * A whole bank of toggle generators advanced word-wide (Figure 8a,
 * one lane per data wire): the driven levels live in a packed
 * WirePlane and firing any subset of lanes is a single XOR of a fire
 * mask into the plane (DESIGN.md §15). Behaviorally identical to one
 * ToggleGenerator per lane.
 */
class ToggleGeneratorBank
{
  public:
    explicit ToggleGeneratorBank(unsigned lanes) : _levels(lanes) {}

    /** Fire every lane whose bit is set in @p mask. */
    void fire(const WirePlane &mask) { _levels.toggle(mask); }

    /** Fire lanes [64*word, 64*word+63] selected by @p mask. */
    void
    fireWord(unsigned word, std::uint64_t mask)
    {
        _levels.mutableWords()[word] ^= mask;
    }

    const WirePlane &levels() const { return _levels; }
    bool level(unsigned lane) const { return _levels[lane]; }

    void reset() { _levels.clear(); }

  private:
    WirePlane _levels;
};

/**
 * A whole bank of toggle detectors sampled word-wide (Figure 8b, one
 * lane per data wire): the delayed copies live in a packed WirePlane,
 * so one cycle's toggles for the entire bus are the XOR of the
 * sampled plane against the delayed plane. Behaviorally identical to
 * one ToggleDetector per lane.
 */
class ToggleDetectorBank
{
  public:
    explicit ToggleDetectorBank(unsigned lanes) : _prev(lanes) {}

    /**
     * Sample all lanes at once: @p toggles receives levels XOR
     * delayed-copies, and the delayed copies become @p levels.
     */
    void
    sample(const WirePlane &levels, WirePlane &toggles)
    {
        const unsigned n = _prev.numWords();
        const std::uint64_t *in = levels.words();
        std::uint64_t *prev = _prev.mutableWords();
        std::uint64_t *out = toggles.mutableWords();
        for (unsigned i = 0; i < n; i++) {
            out[i] = in[i] ^ prev[i];
            prev[i] = in[i];
        }
    }

    void reset() { _prev.clear(); }

  private:
    WirePlane _prev;
};

/**
 * Toggle regenerator (Figure 8c): forwards toggles from one of two
 * H-tree branches upstream, remembering the previous level of each
 * branch segment (used where wires are shared between subbanks).
 */
class ToggleRegenerator
{
  public:
    /**
     * Sample both branch levels; if the selected branch toggled, the
     * output toggles. Returns the regenerated output level.
     */
    bool
    sample(bool branch0, bool branch1, bool select)
    {
        bool in = select ? branch1 : branch0;
        bool &prev = select ? _prev1 : _prev0;
        if (in != prev)
            _out.fire();
        prev = in;
        return _out.level();
    }

    bool level() const { return _out.level(); }

    void
    reset()
    {
        _prev0 = _prev1 = false;
        _out.reset();
    }

  private:
    bool _prev0 = false;
    bool _prev1 = false;
    ToggleGenerator _out;
};

} // namespace desc::core

#endif // DESC_CORE_TOGGLE_HH
