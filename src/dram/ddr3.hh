/**
 * @file
 * DDR3-1066 main-memory model with FR-FCFS scheduling (Table 1).
 *
 * Two channels; each channel owns eight banks with open-row tracking
 * and a shared data bus. The scheduler is first-ready, first-come
 * first-served: row-buffer hits are served ahead of older row misses.
 * Timing is computed in DDR command-clock cycles and converted to the
 * 3.2 GHz core clock.
 */

#ifndef DESC_DRAM_DDR3_HH
#define DESC_DRAM_DDR3_HH

#include <deque>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/eventq.hh"

namespace desc::dram {

struct DramConfig
{
    unsigned channels = 2;
    unsigned banks_per_channel = 8;

    /** DDR3-1066: 533 MHz command clock. */
    double mem_ghz = 0.533;
    double core_ghz = 3.2;

    // Timings in memory cycles (DDR3-1066 CL7 grade).
    unsigned tCL = 7;
    unsigned tRCD = 7;
    unsigned tRP = 7;
    unsigned tBurst = 4; //!< 8-beat burst of a 64B line on a x64 bus

    /** Maximum requests a channel may overlap (bank-level). */
    unsigned max_overlap = 4;
};

struct DramStats
{
    Counter reads;
    Counter writes;
    Counter row_hits;
    Counter row_misses;
    Average latency;
};

class DramSystem
{
  public:
    DramSystem(sim::EventQueue &eq, const DramConfig &cfg = DramConfig{});

    /**
     * Issue a block access; @p done (if set) runs at the completion
     * cycle, with the arg it was given.
     */
    void access(Addr addr, bool is_write, sim::DoneCb done);

    const DramStats &stats() const { return _stats; }

    /** Fixed service latency of an idle-channel row hit (cycles). */
    Cycle rowHitLatency() const;

  private:
    struct Request
    {
        Addr addr;
        bool is_write;
        Cycle issued;
        sim::DoneCb done;
    };

    /**
     * Completion of an in-flight request; up to channels *
     * max_overlap can be pending, drawn from _completions.
     */
    struct CompletionEvent final : sim::Event
    {
        void process() override { owner->complete(*this); }
        DramSystem *owner = nullptr;
        unsigned ch = 0;
        Cycle issued = 0;
        sim::DoneCb done{};
    };

    struct Bank
    {
        Addr open_row = ~Addr{0};
        Cycle ready_at = 0;

        /**
         * Queued requests targeting this bank's open row. Maintained
         * on enqueue/issue (recounted when the open row changes, which
         * a tRP+tRCD precharge amortizes) so the FR-FCFS scheduler can
         * skip scanning the queue when no row hit can exist.
         */
        unsigned queued_hits = 0;
    };

    struct Channel
    {
        std::deque<Request> queue;
        std::vector<Bank> banks;
        Cycle data_bus_free = 0;
        unsigned in_flight = 0;
    };

    unsigned channelOf(Addr addr) const;
    unsigned bankOf(Addr addr) const;
    Addr rowOf(Addr addr) const;
    Cycle toCore(unsigned mem_cycles) const;
    void trySchedule(unsigned ch);
    void complete(CompletionEvent &ev);

    sim::EventQueue &_eq;
    DramConfig _cfg;
    std::vector<Channel> _channels;
    DramStats _stats;

    sim::EventPool<CompletionEvent> _completions{this};
};

} // namespace desc::dram

#endif // DESC_DRAM_DDR3_HH
