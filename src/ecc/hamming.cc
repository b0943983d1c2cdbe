#include "ecc/hamming.hh"

#include "common/contract.hh"
#include "common/log.hh"

namespace desc::ecc {

const char *
eccStatusName(EccStatus status)
{
    switch (status) {
      case EccStatus::Ok:
        return "ok";
      case EccStatus::Corrected:
        return "corrected";
      case EccStatus::DetectedDouble:
        return "double-error";
    }
    DESC_PANIC("bad ecc status");
}

namespace {

bool
isPowerOfTwo(unsigned x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

SecdedCode::SecdedCode(unsigned data_bits)
    : _data_bits(data_bits)
{
    DESC_ASSERT(data_bits >= 1, "empty payload");

    // Smallest p with 2^p >= data + p + 1.
    _parity_bits = 0;
    while ((1u << _parity_bits) < data_bits + _parity_bits + 1)
        _parity_bits++;

    // Hamming positions 1..(data+parity); data bits fill the
    // non-power-of-two slots in order.
    unsigned total = data_bits + _parity_bits;
    _pos_data.assign(total + 1, ~0u);
    _data_pos.reserve(data_bits);
    unsigned di = 0;
    for (unsigned pos = 1; pos <= total; pos++) {
        if (isPowerOfTwo(pos))
            continue;
        _pos_data[pos] = di;
        _data_pos.push_back(pos);
        di++;
    }
    DESC_ASSERT(di == data_bits, "position table construction bug");
}

BitVec
SecdedCode::encode(const BitVec &data) const
{
    DESC_ASSERT(data.width() == _data_bits, "payload width mismatch");

    // Codeword layout: data bits first, Hamming parity bits next,
    // overall parity last (systematic layout keeps the stored data
    // in standard binary format, as Section 3.2.3 requires).
    BitVec code(codeBits());
    unsigned syndrome = 0;
    for (unsigned i = 0; i < _data_bits; i++) {
        if (data.bit(i)) {
            code.setBit(i, true);
            syndrome ^= _data_pos[i];
        }
    }
    for (unsigned p = 0; p < _parity_bits; p++)
        code.setBit(_data_bits + p, (syndrome >> p) & 1);
    code.setBit(codeBits() - 1, code.popcount() & 1);
    return code;
}

SecdedCode::DecodeResult
SecdedCode::decode(const BitVec &codeword) const
{
    DESC_ASSERT(codeword.width() == codeBits(), "codeword width mismatch");

    unsigned syndrome = 0;
    unsigned ones = 0;
    for (unsigned i = 0; i < _data_bits; i++) {
        if (codeword.bit(i)) {
            syndrome ^= _data_pos[i];
            ones++;
        }
    }
    for (unsigned p = 0; p < _parity_bits; p++) {
        if (codeword.bit(_data_bits + p)) {
            syndrome ^= 1u << p;
            ones++;
        }
    }
    bool overall = codeword.bit(codeBits() - 1);
    bool parity_ok = ((ones & 1) != 0) == overall;

    DecodeResult result{EccStatus::Ok, BitVec(_data_bits)};
    for (unsigned i = 0; i < _data_bits; i++)
        result.data.setBit(i, codeword.bit(i));

    if (syndrome == 0 && parity_ok)
        return result; // clean

    if (syndrome == 0 && !parity_ok) {
        // The overall parity bit itself flipped; data is intact.
        result.status = EccStatus::Corrected;
        return result;
    }

    if (!parity_ok) {
        // Single error at Hamming position `syndrome`.
        result.status = EccStatus::Corrected;
        const unsigned i = dataIndexAt(syndrome);
        if (i != ~0u)
            result.data.flipBit(i);
        // Errors in parity positions leave the data intact.
        return result;
    }

    // Non-zero syndrome with matching overall parity: double error.
    result.status = EccStatus::DetectedDouble;
    return result;
}

} // namespace desc::ecc
