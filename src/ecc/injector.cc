#include "ecc/injector.hh"

#include "common/contract.hh"
#include "common/log.hh"

namespace desc::ecc {

unsigned
flipRandomBit(BitVec &bus, Rng &rng)
{
    unsigned pos = unsigned(rng.below(bus.width()));
    bus.flipBit(pos);
    return pos;
}

unsigned
corruptChunk(BitVec &bus, unsigned chunk, unsigned chunk_bits, Rng &rng)
{
    // 1 << chunk_bits must stay a defined, non-zero draw range.
    DESC_ASSERT(chunk_bits >= 1 && chunk_bits <= 63,
                "chunk of ", chunk_bits, " bits outside [1, 63]");
    DESC_ASSERT((chunk + 1) * chunk_bits <= bus.width(),
                "chunk out of range");
    std::uint64_t old = bus.field(chunk * chunk_bits, chunk_bits);
    std::uint64_t bad;
    do {
        bad = rng.below(std::uint64_t{1} << chunk_bits);
    } while (bad == old);
    bus.setField(chunk * chunk_bits, chunk_bits, bad);
    unsigned changed = 0;
    for (std::uint64_t diff = old ^ bad; diff; diff >>= 1)
        changed += diff & 1;
    return changed;
}

unsigned
corruptRandomChunk(BitVec &bus, unsigned chunk_bits, Rng &rng)
{
    unsigned chunks = bus.width() / chunk_bits;
    unsigned chunk = unsigned(rng.below(chunks));
    corruptChunk(bus, chunk, chunk_bits, rng);
    return chunk;
}

} // namespace desc::ecc
