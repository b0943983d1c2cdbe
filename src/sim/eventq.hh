/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global cycle-ordered queue; components schedule events at
 * absolute cycles. Events at the same cycle run in scheduling order
 * (FIFO), which keeps component interactions deterministic.
 *
 * The kernel is allocation-free in steady state. Components own
 * reusable gem5-style intrusive Event objects and (re)schedule them;
 * the queue stores plain {seq, Event*} records. Near events — within
 * kWheelSpan cycles of now, the overwhelmingly common case — append
 * to a timing-wheel slot in O(1); far events go to a binary heap on
 * (when, seq) and migrate into the wheel as the horizon approaches.
 * All backing vectors reuse their capacity. Cancellation is lazy: a
 * descheduled or rescheduled event leaves its stale record behind,
 * and the record is dropped unexecuted when it surfaces (each record
 * carries the sequence number it was issued with; only the record
 * matching the event's live sequence fires).
 *
 * Same-cycle FIFO ordering is an invariant of the structure: within
 * a wheel slot, records are appended in schedule-call (= sequence)
 * order — direct appends happen in call order, and heap records
 * migrate in (when, seq) order before any of that cycle's direct
 * same-cycle appends can occur.
 *
 * Deferred work takes one of two forms. A component that schedules
 * the same kind of work repeatedly derives an Event; anything else is
 * a DoneCb continuation (a function pointer, a context pointer and a
 * small integer), which schedule(when, cb) wraps in a pooled one-shot
 * event. Components hand each other DoneCbs too (the cores to the
 * cache, the cache to DRAM), so no simulated path carries a
 * type-erased callback. Events a component keeps several of in flight
 * come from an EventPool: pinned deque storage with a LIFO free list,
 * so scheduling allocates only while a pool grows to its high-water
 * mark. The queue instruments its one-shot pool (poolAllocations())
 * and its record storage (recordCapacity()) so tests can assert that
 * a steady-state workload performs zero heap allocations in the
 * scheduling path.
 */

#ifndef DESC_SIM_EVENTQ_HH
#define DESC_SIM_EVENTQ_HH

#include <array>
#include <deque>
#include <queue>
#include <type_traits>
#include <vector>

#include "common/contract.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace desc::sim {

class EventQueue;

/**
 * The kernel's continuation type: a plain function pointer plus a
 * context pointer and a small integer argument. Every continuation a
 * component hands to another or to the queue is one of these: core
 * models key theirs on (object, thread id), the hierarchy on (itself,
 * MSHR index). It is trivially copyable, so storing one in a queued
 * request or a pooled event never allocates, which a type-erased
 * closure with captures may. An empty DoneCb (fn == nullptr) means
 * "nothing to run".
 */
struct DoneCb
{
    using Fn = void (*)(void *ctx, unsigned arg);

    Fn fn = nullptr;
    void *ctx = nullptr;
    unsigned arg = 0;

    explicit operator bool() const { return fn != nullptr; }
    void operator()() const { fn(ctx, arg); }
};
static_assert(std::is_trivially_copyable_v<DoneCb>,
              "a continuation must be storable without allocating");

/**
 * Base class of all scheduled work. Components derive from Event,
 * implement process(), and keep the object alive while it is
 * scheduled; the queue never owns component events. An event can be
 * scheduled on at most one cycle at a time, and is automatically
 * descheduled just before process() runs, so process() may
 * immediately reschedule the same object (the recurring-event
 * idiom). Events are pinned: their address is registered with the
 * queue, so they are deliberately neither copyable nor movable.
 */
class Event
{
  public:
    Event() = default;
    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;
    virtual ~Event() = default;

    /** True while the event sits in a queue awaiting execution. */
    bool scheduled() const { return _live_seq != kIdle; }

    /** Cycle the event will fire at; meaningful only if scheduled(). */
    Cycle when() const { return _when; }

  protected:
    /** The event's action; runs with the queue's now() == when(). */
    virtual void process() = 0;

  private:
    friend class EventQueue;

    static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

    Cycle _when = 0;
    std::uint64_t _live_seq = kIdle;
};

/**
 * Pinned, free-listed storage for events a component keeps a varying
 * number of in flight. Storage is a deque, so an acquired event never
 * moves while the pool grows; released events are reused LIFO. E must
 * carry a pointer member `owner`, which acquire() sets once, when it
 * constructs an event. A reused event is handed back as it was
 * released, so members like a waiter vector keep their capacity.
 */
template <class E>
class EventPool
{
  public:
    using Owner = decltype(E::owner);

    explicit EventPool(Owner owner) : _owner(owner) {}

    E &
    acquire()
    {
        if (_free.empty()) {
            E &ev = _store.emplace_back();
            ev.owner = _owner;
            return ev;
        }
        E *ev = _free.back();
        _free.pop_back();
        return *ev;
    }

    void
    release(E &ev)
    {
        _free.push_back(&ev);
        // High-water contract: every free entry was acquired from this
        // pool, so the free list can never outgrow the storage.
        DESC_DCHECK(_free.size() <= _store.size(), "event pool free list (",
                    _free.size(), ") exceeds pool size (", _store.size(),
                    ")");
    }

    /** Events constructed so far: the pool's high-water mark. */
    std::size_t size() const { return _store.size(); }

  private:
    Owner _owner;
    std::deque<E> _store;
    std::vector<E *> _free;
};

class EventQueue
{
  public:
    /** Schedule @p ev at absolute cycle @p when (>= now()). */
    void
    schedule(Event &ev, Cycle when)
    {
        DESC_DCHECK(when >= _now, "scheduling into the past: ", when,
                    " < ", _now);
        DESC_DCHECK(!ev.scheduled(),
                    "double-schedule of a live event (when=", ev._when,
                    ", requested=", when, ")");
        ev._when = when;
        ev._live_seq = _next_seq;
        if (when - _now < kWheelSpan) {
            _wheel[when & kWheelMask].push_back(SlotRec{_next_seq, &ev});
            _wheel_recs++;
        } else {
            _heap.push(Rec{when, _next_seq, &ev});
        }
        _next_seq++;
        _live++;
    }

    /** Schedule @p ev @p delta cycles from now. */
    void scheduleIn(Event &ev, Cycle delta) { schedule(ev, _now + delta); }

    /**
     * Remove @p ev from the queue without running it. A no-op if the
     * event is not scheduled. The stale record is dropped lazily.
     */
    void
    deschedule(Event &ev)
    {
        if (!ev.scheduled())
            return;
        ev._live_seq = Event::kIdle;
        _live--;
    }

    /**
     * Move @p ev to cycle @p when, scheduled or not. Ordering-wise
     * this is deschedule() + schedule(): the event re-enters the
     * same-cycle FIFO order as if freshly scheduled.
     */
    void
    reschedule(Event &ev, Cycle when)
    {
        deschedule(ev);
        schedule(ev, when);
    }

    /**
     * Schedule one-shot @p cb at absolute cycle @p when, in a pooled
     * event. An empty @p cb still occupies its cycle and sequence
     * number; it just runs nothing.
     */
    void
    schedule(Cycle when, DoneCb cb)
    {
        OneShot &ev = _one_shots.acquire();
        ev.cb = cb;
        schedule(ev, when);
    }

    /** Schedule one-shot @p cb @p delta cycles from now. */
    void scheduleIn(Cycle delta, DoneCb cb) { schedule(_now + delta, cb); }

    Cycle now() const { return _now; }
    bool empty() const { return _live == 0; }
    std::size_t pending() const { return _live; }

    /**
     * Run events until the queue drains or simulated time exceeds
     * @p limit. Returns the number of events executed.
     */
    std::uint64_t
    run(Cycle limit = ~Cycle{0})
    {
        std::uint64_t executed = 0;
        // The scan cursor walks cycles ahead of _now; _now itself only
        // advances when an event actually executes, so draining stale
        // records never moves simulated time.
        Cycle scan = _now;
        while (_live != 0) {
            // Pull far records that have entered the wheel's horizon.
            // Popping in (when, seq) order keeps per-slot appends in
            // seq order; stale records surfacing at the top are
            // dropped here, so afterwards the top (if any) is live.
            while (!_heap.empty()) {
                const Rec &top = _heap.top();
                if (top.ev->_live_seq != top.seq) {
                    _heap.pop(); // stale (re|de)scheduled record
                    continue;
                }
                if (top.when - scan >= kWheelSpan)
                    break;
                _wheel[top.when & kWheelMask].push_back(
                    SlotRec{top.seq, top.ev});
                _wheel_recs++;
                _heap.pop();
            }
            if (_wheel_recs == 0) {
                if (_heap.empty())
                    break;
                Cycle next = _heap.top().when;
                if (next > limit)
                    break;
                scan = next; // jump the empty gap in one step
                continue;
            }
            if (scan > limit)
                break;
            // Events may append same-cycle work to this slot while it
            // is being processed, so iterate by index and re-read the
            // size (push_back can also reallocate the slot). A live
            // entry whose when is a whole wheel turn away (possible
            // when a later run() revisits cycles an earlier limited
            // run() scanned past) is kept for that future visit.
            auto &slot = _wheel[scan & kWheelMask];
            std::size_t keep = 0;
            for (std::size_t i = 0; i < slot.size(); i++) {
                SlotRec r = slot[i];
                if (r.ev->_live_seq != r.seq)
                    continue; // stale
                if (r.ev->_when != scan) {
                    // A live record can only sit in this slot early if
                    // its cycle is a whole wheel turn (or more) away.
                    DESC_DCHECK((r.ev->_when & kWheelMask)
                                    == (scan & kWheelMask),
                                "live record in wrong wheel slot: when=",
                                r.ev->_when, " scan=", scan);
                    slot[keep++] = r;
                    continue;
                }
                DESC_DCHECK(scan >= _now,
                            "event time moved backwards: ", scan, " < ",
                            _now);
                _now = scan;
                r.ev->_live_seq = Event::kIdle;
                _live--;
                r.ev->process();
                executed++;
            }
            _wheel_recs -= slot.size() - keep;
            slot.resize(keep);
            scan++;
        }
        return executed;
    }

    /**
     * One-shot events allocated so far. Stays flat once the pool
     * reaches its high-water mark — the allocation-free steady-state
     * invariant the kernel tests assert.
     */
    std::uint64_t poolAllocations() const { return _one_shots.size(); }

    /**
     * Total record capacity across the far heap's backing vector and
     * all wheel slots. Flat in steady state — together with
     * poolAllocations() this is the zero-allocation invariant.
     */
    std::size_t
    recordCapacity() const
    {
        std::size_t cap = _store.capacity();
        for (const auto &slot : _wheel)
            cap += slot.capacity();
        return cap;
    }

  private:
    /** Wheel geometry: near horizon, in cycles. Power of two. */
    static constexpr unsigned kWheelBits = 8;
    static constexpr Cycle kWheelSpan = Cycle{1} << kWheelBits;
    static constexpr Cycle kWheelMask = kWheelSpan - 1;

    /** Wheel-slot record; when is recovered from the event itself. */
    struct SlotRec
    {
        std::uint64_t seq;
        Event *ev;
    };

    struct Rec
    {
        Cycle when;
        std::uint64_t seq;
        Event *ev;

        bool
        operator>(const Rec &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    /** Pooled one-shot: frees itself, then runs its continuation. */
    struct OneShot final : Event
    {
        void
        process() override
        {
            const DoneCb run = cb;
            owner->_one_shots.release(*this);
            if (run)
                run();
        }

        EventQueue *owner = nullptr;
        DoneCb cb{};
    };

    /** Min-heap on (when, seq); _store is the reused backing vector. */
    class Heap : public std::priority_queue<Rec, std::vector<Rec>,
                                            std::greater<>>
    {
      public:
        std::vector<Rec> &container() { return c; }
    };

    Heap _heap;
    std::vector<Rec> &_store = _heap.container();
    std::array<std::vector<SlotRec>, kWheelSpan> _wheel;
    std::size_t _wheel_recs = 0; //!< records (live + stale) in slots
    Cycle _now = 0;
    std::uint64_t _next_seq = 0;
    std::size_t _live = 0;

    EventPool<OneShot> _one_shots{this};
};

} // namespace desc::sim

#endif // DESC_SIM_EVENTQ_HH
