#include "core/descscheme.hh"

#include <algorithm>
#include <bit>

#include "common/contract.hh"
#include "encoding/swar.hh"

namespace desc::core {

namespace swar = encoding::swar;

namespace {

/** Occupancy window and driven-chunk count of one scanned wave. */
struct WaveScan
{
    std::uint64_t maxv = 0;
    unsigned sent = 0;
};

/** Zero-skip wave: a chunk is driven iff non-zero, at cost v. */
template <unsigned B>
WaveScan
scanZeroWave(const std::uint64_t *cur, unsigned wpw)
{
    WaveScan r;
    for (unsigned j = 0; j < wpw; j++) {
        const std::uint64_t x = cur[j];
        if (!x)
            continue;
        r.sent += swar::nonzeroChunks<B>(x);
        r.maxv = std::max(r.maxv, swar::maxChunk<B>(x));
    }
    return r;
}

/**
 * Skipped wave against per-wire skip values (the previous wave, or
 * the adaptive tracker's choice): a chunk is driven iff it differs
 * from its wire's skip value s, at cost
 * chunkCycles(v, skip=true, s) = v + (v < s). The +1 cannot carry out
 * of the chunk because v < s bounds v below the chunk maximum; chunks
 * equal to their skip value are masked out of the window fold.
 */
template <unsigned B>
WaveScan
scanSkipWave(const std::uint64_t *cur, const std::uint64_t *skip,
             unsigned wpw)
{
    constexpr std::uint64_t lane_ones = (std::uint64_t{1} << B) - 1;
    WaveScan r;
    for (unsigned j = 0; j < wpw; j++) {
        const std::uint64_t d = cur[j] ^ skip[j];
        if (!d)
            continue;
        const std::uint64_t markers = swar::nonzeroChunkMarkers<B>(d);
        r.sent += unsigned(std::popcount(markers));
        const std::uint64_t adj =
            cur[j] + swar::lessPerChunk<B>(cur[j], skip[j]);
        r.maxv = std::max(r.maxv,
                          swar::maxChunk<B>(adj & (markers * lane_ones)));
    }
    return r;
}

/**
 * Basic mode: add each wire's chunk of one wave into 16-bit lane
 * sums. Sum word j*(16/B)+p holds, in its four lanes, the sums of the
 * wave word j chunks p, p+16/B, p+2*16/B and p+3*16/B.
 */
template <unsigned B>
void
addWave(const std::uint64_t *cur, unsigned wpw, std::uint64_t *sums)
{
    constexpr unsigned spread = 16 / B;
    constexpr std::uint64_t lanes = swar::laneLowMask(16, B);
    for (unsigned j = 0; j < wpw; j++) {
        const std::uint64_t x = cur[j];
        if (!x)
            continue;
        for (unsigned p = 0; p < spread; p++)
            sums[j * spread + p] += (x >> (p * B)) & lanes;
    }
}

using ScanZeroFn = WaveScan (*)(const std::uint64_t *, unsigned);
using ScanSkipFn = WaveScan (*)(const std::uint64_t *,
                                const std::uint64_t *, unsigned);
using AddFn = void (*)(const std::uint64_t *, unsigned, std::uint64_t *);

/** Instantiations for each supported chunk width, indexed by log2. */
constexpr ScanZeroFn kScanZero[4] = {scanZeroWave<1>, scanZeroWave<2>,
                                     scanZeroWave<4>, scanZeroWave<8>};
constexpr ScanSkipFn kScanSkip[4] = {scanSkipWave<1>, scanSkipWave<2>,
                                     scanSkipWave<4>, scanSkipWave<8>};
constexpr AddFn kAddWave[4] = {addWave<1>, addWave<2>, addWave<4>,
                               addWave<8>};

/** log2 of a supported chunk width (1, 2, 4, 8). */
inline unsigned
chunkLog2(unsigned b)
{
    return unsigned(std::countr_zero(b));
}

/** @p cfg, once it is known to be a geometry the word pass packs. */
const DescConfig &
checked(const DescConfig &cfg)
{
    cfg.validate();
    DESC_ASSERT(swar::supportedChunk(cfg.chunk_bits),
                "DescScheme packs 1, 2, 4 or 8-bit chunks, not ",
                cfg.chunk_bits, "; DescLink models other widths");
    return cfg;
}

} // namespace

DescScheme::DescScheme(const DescConfig &cfg)
    : _cfg(checked(cfg)),
      _waves(cfg.block_bits, cfg.activeWires() * cfg.chunk_bits),
      _adaptive(cfg.activeWires(), cfg.chunk_bits)
{
    switch (_cfg.skip) {
      case SkipMode::None:
        DESC_ASSERT(_cfg.numWaves() * _cfg.maxValue() < (1u << 15),
                    "basic-mode wire sums overflow their 16-bit lanes");
        _wire_sums.assign(_waves.words() * 16 / _cfg.chunk_bits, 0);
        break;
      case SkipMode::Zero:
        break;
      case SkipMode::LastValue:
      case SkipMode::Adaptive:
        _skip.assign(_waves.words(), 0);
        break;
    }
}

const char *
DescScheme::name() const
{
    switch (_cfg.skip) {
      case SkipMode::None:
        return "Basic DESC";
      case SkipMode::Zero:
        return "Zero Skipped DESC";
      case SkipMode::LastValue:
        return "Last Value Skipped DESC";
      case SkipMode::Adaptive:
        return "Adaptive Skipped DESC";
    }
    return "?";
}

encoding::TransferResult
DescScheme::transfer(const BitVec &block)
{
    DESC_ASSERT(block.width() == _cfg.block_bits, "block width mismatch");
    encoding::TransferResult result;

    const unsigned lb = chunkLog2(_cfg.chunk_bits);
    const unsigned wires = _cfg.activeWires();
    const unsigned waves = _cfg.numWaves();
    const unsigned wpw = _waves.words();

    if (_cfg.skip == SkipMode::None) {
        // One reset pulse, then every wire streams its queue back to
        // back, sum(v + 1) cycles over its chunks; the block completes
        // when the slowest wire finishes.
        std::fill(_wire_sums.begin(), _wire_sums.end(), 0);
        for (unsigned g = 0; g < waves; g++)
            kAddWave[lb](_waves.wave(block, g), wpw, _wire_sums.data());
        std::uint64_t m = 0;
        for (std::uint64_t s : _wire_sums)
            m = swar::laneMax<16>(m, s);
        const Cycle window = waves + swar::foldMaxLanes<16>(m);
        result.cycles = 1 + window;
        result.data_flips = _cfg.numChunks();
        // Reset pulse plus one sync-strobe transition per busy cycle.
        result.control_flips = 1 + result.cycles;
        return result;
    }

    // Value-skipped protocol: one chunk per wire per wave; the pulse
    // closing a wave is merged with the next wave's opening pulse.
    Cycle cycles = 1; // opening pulse of wave 0
    std::uint64_t reset_flips = 1;
    for (unsigned g = 0; g < waves; g++) {
        const std::uint64_t *cur = _waves.wave(block, g);
        WaveScan scan;
        if (_cfg.skip == SkipMode::Zero) {
            scan = kScanZero[lb](cur, wpw);
        } else {
            scan = kScanSkip[lb](cur, _skip.data(), wpw);
            if (_cfg.skip == SkipMode::LastValue)
                std::copy_n(cur, wpw, _skip.begin());
            else
                adaptWave(cur);
        }
        const unsigned sent = scan.sent;
        result.data_flips += sent;
        result.skipped += wires - sent;
        Cycle window = Cycle(scan.maxv);
        if (window == 0)
            window = 1; // all-skipped wave: closing pulse one cycle later
        cycles += window;
        if (g + 1 < waves)
            reset_flips++; // merged close/open
        else if (sent < wires)
            reset_flips++; // final closing pulse
    }
    result.cycles = cycles;
    result.control_flips = reset_flips + cycles; // + sync strobe
    return result;
}

/**
 * Account wave @p cur to the adaptive tracker, wire by wire, and pack
 * each wire's new most frequent value into its skip slot. A wire's
 * update touches only its own tracker row, so scanning the whole wave
 * against the old skip values first gives the chunk-order result.
 */
void
DescScheme::adaptWave(const std::uint64_t *cur)
{
    const unsigned b = _cfg.chunk_bits;
    const std::uint64_t mask = _cfg.maxValue();
    for (unsigned w = 0; w < _cfg.activeWires(); w++) {
        const unsigned pos = w * b;
        const unsigned off = pos & 63;
        _adaptive.update(w, std::uint8_t((cur[pos >> 6] >> off) & mask));
        std::uint64_t &s = _skip[pos >> 6];
        s = (s & ~(mask << off)) | (std::uint64_t{_adaptive.best(w)} << off);
    }
}

void
DescScheme::reset()
{
    std::fill(_skip.begin(), _skip.end(), 0);
    _adaptive.reset();
}

} // namespace desc::core
