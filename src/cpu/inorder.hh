/**
 * @file
 * Niagara-like in-order multithreaded core (Table 1): single-issue,
 * four hardware thread contexts, switch-on-miss.
 *
 * The core interleaves runnable threads; a thread that misses in the
 * L1 blocks until the hierarchy's completion callback, while the
 * other contexts keep the pipeline fed — which is what makes the
 * multicore tolerate DESC's longer transfer windows (Figure 20) far
 * better than the out-of-order core does (Figure 30).
 */

#ifndef DESC_CPU_INORDER_HH
#define DESC_CPU_INORDER_HH

#include <deque>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "cpu/stream.hh"
#include "sim/eventq.hh"

namespace desc::cpu {

struct CoreStats
{
    Counter instructions;
    Counter mem_ops;
    Counter stall_cycles;
};

class InOrderCore
{
  public:
    /**
     * @param inst_budget retired instructions per thread before the
     *        thread (and eventually the core) reports done
     */
    InOrderCore(sim::EventQueue &eq, cache::MemHierarchy &mem,
                unsigned core_id,
                std::vector<std::unique_ptr<InstructionStream>> threads,
                std::uint64_t inst_budget);

    /** Kick off execution (schedules the first dispatch). */
    void start();

    bool done() const { return _done_threads == _threads.size(); }

    const CoreStats &stats() const { return _stats; }

  private:
    struct Thread
    {
        std::unique_ptr<InstructionStream> stream;
        std::uint64_t retired = 0;
        bool blocked = false;
        bool finished = false;
        std::uint64_t fetch_countdown = 0;
    };

    /** The core's single reusable issue-slot event. */
    struct DispatchEvent final : sim::Event
    {
        void process() override { core->dispatch(); }
        InOrderCore *core = nullptr;
    };

    /**
     * Per-thread continuation: either the end of an execution burst
     * whose last instruction is a memory op (issue it), or a plain
     * wake-up that returns the thread to the ready queue. A thread
     * has at most one continuation in flight, so one reusable event
     * per thread suffices.
     */
    struct ThreadEvent final : sim::Event
    {
        enum class Kind : std::uint8_t { ExecMem, Wake };

        void process() override { core->threadEvent(*this); }

        InOrderCore *core = nullptr;
        unsigned tid = 0;
        Kind kind = Kind::Wake;
        MemOp op{};
    };

    void dispatch();
    void scheduleDispatch(Cycle when);
    void threadEvent(ThreadEvent &ev);
    void onMemDone(unsigned tid);

    /** Completion callback waking thread @p tid. */
    sim::DoneCb
    memDoneCb(unsigned tid)
    {
        return {[](void *c, unsigned t) {
                    static_cast<InOrderCore *>(c)->onMemDone(t);
                },
                this, tid};
    }

    sim::EventQueue &_eq;
    cache::MemHierarchy &_mem;
    unsigned _core_id;
    std::uint64_t _inst_budget;

    std::vector<Thread> _threads;
    std::deque<unsigned> _ready;
    unsigned _done_threads = 0;

    DispatchEvent _dispatch_ev;
    std::deque<ThreadEvent> _thread_events; //!< indexed by tid (pinned)

    CoreStats _stats;

    /** Instructions covered by one I-fetch (one line per 8 insts). */
    static constexpr unsigned kFetchInterval = 8;
};

} // namespace desc::cpu

#endif // DESC_CPU_INORDER_HH
