/**
 * @file
 * The data-transfer scheme interface every encoding implements.
 *
 * A TransferScheme models one direction of one bank's data port. It is
 * stateful: wires hold their last driven level across block transfers,
 * so transition counts are bit-accurate functions of the actual data
 * stream. The simulator calls transfer() for every block moved over
 * the H-tree and charges:
 *
 *   - cycles        -> bank/bus occupancy (performance),
 *   - data_flips    -> H-tree dynamic energy on data wires,
 *   - control_flips -> H-tree dynamic energy on extra wires (invert
 *                      lines, zero indicators, reset/skip, sync strobe).
 */

#ifndef DESC_ENCODING_SCHEME_HH
#define DESC_ENCODING_SCHEME_HH

#include <memory>
#include <optional>
#include <string>

#include "common/bitvec.hh"
#include "common/types.hh"

namespace desc::encoding {

/**
 * How a TransferScheme walks a block: the chunk-at-a-time scalar
 * reference loops, or the word-at-a-time batched passes (SWAR chunk
 * and segment math). Both produce bit-identical TransferResults —
 * each batched pass has a differential test against its scalar loop
 * (DescEquivalence, DzcDifferential, BusInvertDifferential) — so Auto
 * simply takes the batched pass wherever the configuration supports
 * one and falls back to scalar elsewhere (odd chunk widths, adaptive
 * skip tracking, unaligned waves, segments that are not a power of
 * two, buses that are not a multiple of 64 wires).
 */
enum class EncoderMode {
    Auto,    //!< batched where supported (default)
    Scalar,  //!< force the chunk-at-a-time reference loops
    Batched, //!< batched where supported (same as Auto; named so
             //!< tests can force either engine explicitly)
};

/**
 * Process-wide default encoder mode, from the DESC_ENCODER_MODE
 * environment variable (auto|scalar|batched). Parsed once; an
 * unrecognized value warns and falls back to Auto. Schemes latch the
 * default at construction.
 */
EncoderMode defaultEncoderMode();

/**
 * Programmatic override of defaultEncoderMode(), bypassing the
 * environment (nullopt restores the environment's answer). For tests
 * and benchmarks that construct schemes indirectly, e.g. through the
 * cache hierarchy.
 */
void setDefaultEncoderMode(std::optional<EncoderMode> mode);

/** Every data-exchange technique evaluated in the paper (Figure 16). */
enum class SchemeKind {
    Binary,
    DynamicZeroCompression,
    BusInvert,
    ZeroSkipBusInvert,
    EncodedZeroSkipBusInvert,
    DescBasic,
    DescZeroSkip,
    DescLastValueSkip,
};

constexpr unsigned kNumSchemes = 8;

/** Display name matching the paper's legends. */
const char *schemeName(SchemeKind kind);

/** Configuration shared by all schemes. */
struct SchemeConfig
{
    /** Data wires on the bus (paper sweeps 8..512; baseline 64). */
    unsigned bus_wires = 64;

    /** Bits per block (512 throughout the paper). */
    unsigned block_bits = kBlockBits;

    /** Segment size for bus-invert / zero-compression baselines. */
    unsigned segment_bits = 32;

    /** Chunk size for DESC (paper's best: 4). */
    unsigned chunk_bits = 4;
};

/** Activity and occupancy of one block transfer. */
struct TransferResult
{
    /** Bus occupancy (serialization window) in cycles. */
    Cycle cycles = 0;

    /** Transitions on the data wires. */
    std::uint64_t data_flips = 0;

    /** Transitions on control wires (invert/zero/reset/skip/sync). */
    std::uint64_t control_flips = 0;

    /** Chunks/segments whose transfer was skipped (stats only). */
    std::uint64_t skipped = 0;

    std::uint64_t totalFlips() const { return data_flips + control_flips; }
};

class TransferScheme
{
  public:
    virtual ~TransferScheme() = default;

    /** Move one block across the link; updates persistent wire state. */
    virtual TransferResult transfer(const BitVec &block) = 0;

    /** Number of data wires the scheme drives. */
    virtual unsigned dataWires() const = 0;

    /** Number of extra (control) wires the scheme needs. */
    virtual unsigned controlWires() const = 0;

    virtual const char *name() const = 0;

    /** Return all wires to the all-zero idle state. */
    virtual void reset() = 0;
};

} // namespace desc::encoding

#endif // DESC_ENCODING_SCHEME_HH
