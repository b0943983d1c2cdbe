/**
 * @file
 * TransferScheme adapter over a full DescLink.
 *
 * Exposes the cycle-accurate transmitter/receiver pair behind the same
 * interface as the behavioral DescScheme, so the cache hierarchy can
 * drive real links instead of the block-level model
 * (L2Config::link_backed), with the option of attaching per-cycle
 * hooks (VCD export, fault injection) to the link. name() returns the
 * same strings as DescScheme so reports are unchanged by the backing
 * choice.
 */

#ifndef DESC_CORE_LINKSCHEME_HH
#define DESC_CORE_LINKSCHEME_HH

#include "core/config.hh"
#include "core/link.hh"
#include "encoding/scheme.hh"

namespace desc::core {

class LinkDescScheme : public encoding::TransferScheme
{
  public:
    explicit LinkDescScheme(const DescConfig &cfg);

    encoding::TransferResult
    transfer(const BitVec &block) override
    {
        return _link.transferBlock(block);
    }

    unsigned dataWires() const override { return _cfg.activeWires(); }
    unsigned controlWires() const override { return 2; }
    const char *name() const override;
    void reset() override { _link.reset(); }

    /** The underlying link, e.g. to attach hooks. */
    DescLink &link() { return _link; }

    const DescConfig &config() const { return _cfg; }

  private:
    DescConfig _cfg;
    DescLink _link;
};

} // namespace desc::core

#endif // DESC_CORE_LINKSCHEME_HH
