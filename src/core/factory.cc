#include "core/factory.hh"

#include "common/log.hh"
#include "core/descscheme.hh"
#include "encoding/binary.hh"
#include "encoding/businvert.hh"
#include "encoding/dzc.hh"

namespace desc::core {

using encoding::SchemeConfig;
using encoding::SchemeKind;
using encoding::TransferScheme;

std::unique_ptr<TransferScheme>
makeScheme(SchemeKind kind, const SchemeConfig &cfg)
{
    auto desc_cfg = [&](SkipMode skip) {
        DescConfig c;
        c.bus_wires = cfg.bus_wires;
        c.chunk_bits = cfg.chunk_bits;
        c.block_bits = cfg.block_bits;
        c.skip = skip;
        return c;
    };

    switch (kind) {
      case SchemeKind::Binary:
        return std::make_unique<encoding::BinaryScheme>(cfg);
      case SchemeKind::DynamicZeroCompression:
        return std::make_unique<encoding::DynamicZeroScheme>(cfg);
      case SchemeKind::BusInvert:
        return std::make_unique<encoding::BusInvertScheme>(
            cfg, encoding::BusInvertScheme::Mode::Plain);
      case SchemeKind::ZeroSkipBusInvert:
        return std::make_unique<encoding::BusInvertScheme>(
            cfg, encoding::BusInvertScheme::Mode::ZeroSkipSparse);
      case SchemeKind::EncodedZeroSkipBusInvert:
        return std::make_unique<encoding::BusInvertScheme>(
            cfg, encoding::BusInvertScheme::Mode::ZeroSkipEncoded);
      case SchemeKind::DescBasic:
        return std::make_unique<DescScheme>(desc_cfg(SkipMode::None));
      case SchemeKind::DescZeroSkip:
        return std::make_unique<DescScheme>(desc_cfg(SkipMode::Zero));
      case SchemeKind::DescLastValueSkip:
        return std::make_unique<DescScheme>(desc_cfg(SkipMode::LastValue));
    }
    DESC_PANIC("bad scheme kind");
}

const SchemeKind *
allSchemeKinds()
{
    static const SchemeKind kinds[encoding::kNumSchemes] = {
        SchemeKind::Binary,
        SchemeKind::DynamicZeroCompression,
        SchemeKind::BusInvert,
        SchemeKind::ZeroSkipBusInvert,
        SchemeKind::EncodedZeroSkipBusInvert,
        SchemeKind::DescBasic,
        SchemeKind::DescZeroSkip,
        SchemeKind::DescLastValueSkip,
    };
    return kinds;
}

} // namespace desc::core
