/**
 * @file
 * A DESC link: transmitter and receiver coupled by ideal wires.
 *
 * The link ticks both endpoints cycle by cycle, counts every wire
 * transition, and returns the recovered block — this is the reference
 * model the fast behavioral DescScheme is validated against, and the
 * substrate for the ECC error-injection experiments (a transient
 * H-tree fault is injected as a spurious or suppressed toggle).
 */

#ifndef DESC_CORE_LINK_HH
#define DESC_CORE_LINK_HH

#include <functional>

#include "common/bitvec.hh"
#include "core/config.hh"
#include "core/receiver.hh"
#include "core/transmitter.hh"
#include "encoding/scheme.hh"

namespace desc::core {

class DescLink
{
  public:
    explicit DescLink(const DescConfig &cfg);

    /**
     * Optional wire fault hook: called once per cycle with the bundle
     * about to be observed by the receiver; mutating it injects an
     * H-tree error (used by the ECC experiments).
     */
    using FaultHook = std::function<void(Cycle, WireBundle &)>;
    void setFaultHook(FaultHook hook) { _fault = std::move(hook); }

    /**
     * Optional wire observer: called once per cycle with the bundle
     * the receiver sees (after fault injection), stamped with the
     * link's monotonic cycle count. This is the snapshot path the VCD
     * waveform export attaches to (sim/vcd.hh).
     */
    using WireHook = std::function<void(Cycle, const WireBundle &)>;
    void setWireHook(WireHook hook) { _observer = std::move(hook); }

    /**
     * Transmit @p block end to end; @p received (if non-null) gets the
     * block the receiver recovered.
     */
    encoding::TransferResult transferBlock(const BitVec &block,
                                           BitVec *received = nullptr);

    DescTransmitter &tx() { return _tx; }
    DescReceiver &rx() { return _rx; }

    void reset();

  private:
    DescConfig _cfg;
    DescTransmitter _tx;
    DescReceiver _rx;
    WireBundle _cur;  //!< reused per-cycle snapshot of the tx wires
    WireBundle _prev;
    Cycle _cycle = 0;
    FaultHook _fault;
    WireHook _observer;
};

} // namespace desc::core

#endif // DESC_CORE_LINK_HH
