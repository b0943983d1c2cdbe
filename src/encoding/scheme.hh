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
#include <string>

#include "common/bitvec.hh"
#include "common/types.hh"

namespace desc::encoding {

/**
 * Test hook: while on, objects constructed afterwards take their
 * scalar reference walk instead of the word pass their geometry would
 * select. BusInvertScheme, DynamicZeroScheme and core::ChunkStats
 * read it once, at construction, and keep that path for life;
 * DescScheme has one engine and does not read it. Each word pass is
 * bit-identical to its reference, so the hook changes speed only; the
 * differential suites and bench/perf_kernel's reference-speed probe
 * set it, production code never does.
 */
void setReferenceEncoders(bool on);

/** Current setting of the setReferenceEncoders() hook. */
bool referenceEncoders();

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

    /**
     * True when transfer() takes a word-at-a-time pass. The scheme's
     * geometry picks the pass at construction; schemes without a word
     * pass, and a segment scheme built under setReferenceEncoders(true),
     * run the scalar walk.
     */
    virtual bool usesWordPass() const { return false; }
};

} // namespace desc::encoding

#endif // DESC_ENCODING_SCHEME_HH
