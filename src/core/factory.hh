/**
 * @file
 * Factory for all data-transfer schemes evaluated in the paper.
 */

#ifndef DESC_CORE_FACTORY_HH
#define DESC_CORE_FACTORY_HH

#include <memory>

#include "encoding/scheme.hh"

namespace desc::core {

/**
 * Build a scheme of the given kind. DESC kinds consume cfg.bus_wires,
 * cfg.block_bits and cfg.chunk_bits; baseline kinds consume
 * cfg.bus_wires, cfg.block_bits and cfg.segment_bits.
 */
std::unique_ptr<encoding::TransferScheme>
makeScheme(encoding::SchemeKind kind, const encoding::SchemeConfig &cfg);

/** All scheme kinds in the order of the paper's Figure 16 legend. */
const encoding::SchemeKind *allSchemeKinds();

} // namespace desc::core

#endif // DESC_CORE_FACTORY_HH
