/**
 * @file
 * H-tree transient-error injection (Section 3.2.3).
 *
 * Under conventional binary signaling a transient fault flips one wire
 * for one beat: a single bad bit. Under DESC a fault displaces or
 * fakes one toggle, which corrupts one whole chunk — up to chunk_bits
 * wrong bits, all inside one chunk. These helpers synthesize both
 * fault models on an encoded bus word so the ECC experiments can
 * verify that the interleaved SECDED layout keeps DESC correctable.
 */

#ifndef DESC_ECC_INJECTOR_HH
#define DESC_ECC_INJECTOR_HH

#include "common/bitvec.hh"
#include "common/rng.hh"

namespace desc::ecc {

/** Flip one uniformly random bit (binary-signaling fault). */
unsigned flipRandomBit(BitVec &bus, Rng &rng);

/**
 * Corrupt chunk @p chunk of the bus word to a different random value
 * (DESC-signaling fault). Returns the number of bits that changed.
 * @pre 1 <= chunk_bits <= 63
 */
unsigned corruptChunk(BitVec &bus, unsigned chunk, unsigned chunk_bits,
                      Rng &rng);

/** Corrupt a uniformly random chunk; returns the chunk index. */
unsigned corruptRandomChunk(BitVec &bus, unsigned chunk_bits, Rng &rng);

} // namespace desc::ecc

#endif // DESC_ECC_INJECTOR_HH
