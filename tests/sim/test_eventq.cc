/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/eventq.hh"
#include "thunks.hh"

using namespace desc;
using namespace desc::sim;

namespace {

/** Intrusive test event: appends (id, now) to a shared log. */
struct LogEvent final : Event
{
    void
    process() override
    {
        log->push_back({id, eq->now()});
    }

    EventQueue *eq = nullptr;
    std::vector<std::pair<int, Cycle>> *log = nullptr;
    int id = 0;
};

} // namespace

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    test::Thunks fn;
    std::vector<int> order;
    eq.schedule(30, fn([&]() { order.push_back(3); }));
    eq.schedule(10, fn([&]() { order.push_back(1); }));
    eq.schedule(20, fn([&]() { order.push_back(2); }));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameCycleIsFifo)
{
    EventQueue eq;
    test::Thunks fn;
    std::vector<int> order;
    for (int i = 0; i < 5; i++)
        eq.schedule(7, fn([&, i]() { order.push_back(i); }));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    test::Thunks fn;
    int fired = 0;
    std::function<void()> chain = [&]() {
        fired++;
        if (fired < 10)
            eq.scheduleIn(5, fn(chain));
    };
    eq.schedule(0, fn(chain));
    eq.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eq.now(), 45u);
}

TEST(EventQueue, SameCycleSelfScheduleRuns)
{
    EventQueue eq;
    test::Thunks fn;
    bool inner = false;
    eq.schedule(5, fn([&]() {
        eq.schedule(5, fn([&]() { inner = true; }));
    }));
    eq.run();
    EXPECT_TRUE(inner);
}

TEST(EventQueue, RunLimitStopsEarly)
{
    EventQueue eq;
    test::Thunks fn;
    int fired = 0;
    eq.schedule(10, fn([&]() { fired++; }));
    eq.schedule(100, fn([&]() { fired++; }));
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ReturnsExecutedCount)
{
    EventQueue eq;
    test::Thunks fn;
    for (int i = 0; i < 7; i++)
        eq.schedule(Cycle(i), fn([]() {}));
    EXPECT_EQ(eq.run(), 7u);
}

// The invariants below are what make parallel figure batches
// comparable to serial ones: every simulation's event interleaving
// is a pure function of its own schedule calls.

TEST(EventQueue, CallbackAtCurrentCycleRunsAfterOlderSameCycleEvents)
{
    EventQueue eq;
    test::Thunks fn;
    std::vector<int> order;
    // The first cycle-5 event schedules another cycle-5 event; FIFO
    // order puts it after the pre-existing cycle-5 events but before
    // anything later.
    eq.schedule(5, fn([&]() {
        order.push_back(0);
        eq.schedule(5, fn([&]() { order.push_back(2); }));
    }));
    eq.schedule(5, fn([&]() { order.push_back(1); }));
    eq.schedule(6, fn([&]() { order.push_back(3); }));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, SelfScheduleAtCurrentCycleKeepsNow)
{
    EventQueue eq;
    test::Thunks fn;
    Cycle seen = ~Cycle{0};
    eq.schedule(9, fn([&]() {
        eq.scheduleIn(0, fn([&]() { seen = eq.now(); }));
    }));
    eq.run();
    EXPECT_EQ(seen, 9u);
    EXPECT_EQ(eq.now(), 9u);
}

TEST(EventQueue, RunLimitIsInclusive)
{
    EventQueue eq;
    test::Thunks fn;
    int fired = 0;
    eq.schedule(50, fn([&]() { fired++; }));
    eq.schedule(51, fn([&]() { fired++; }));
    EXPECT_EQ(eq.run(50), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, NowDoesNotAdvancePastLimit)
{
    EventQueue eq;
    test::Thunks fn;
    eq.schedule(10, fn([]() {}));
    eq.schedule(100, fn([]() {}));
    eq.run(40);
    // Time stands at the last executed event, not at the limit or
    // the next pending event.
    EXPECT_EQ(eq.now(), 10u);
    eq.run();
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, EventsAtLimitMaySpawnSameCycleWork)
{
    EventQueue eq;
    test::Thunks fn;
    std::vector<int> order;
    eq.schedule(20, fn([&]() {
        order.push_back(0);
        eq.schedule(20, fn([&]() { order.push_back(1); }));
        eq.schedule(21, fn([&]() { order.push_back(2); }));
    }));
    // Both cycle-20 events run under run(20); the cycle-21 spawn
    // stays pending.
    EXPECT_EQ(eq.run(20), 2u);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Scheduling contracts are DESC_DCHECKs: they trap with context in
// Debug builds and compile to nothing on the Release hot path.
#ifndef NDEBUG

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    test::Thunks fn;
    eq.schedule(10, fn([]() {}));
    eq.run();
    EXPECT_DEATH(eq.schedule(5, fn([]() {})), "into the past");
}

TEST(EventQueueDeath, DoubleSchedulePanics)
{
    EventQueue eq;
    LogEvent a;
    eq.schedule(a, 10);
    EXPECT_DEATH(eq.schedule(a, 20), "double-schedule of a live event");
}

TEST(EventQueueDeath, DoubleScheduleOfPooledCallbackPanics)
{
    // The same contract protects the pooled one-shot wrapper: a
    // component that re-schedules a live intrusive event by accident
    // must trap before the queue's FIFO/sequence bookkeeping corrupts.
    EventQueue eq;
    LogEvent a;
    eq.schedule(a, 3);
    eq.deschedule(a);
    eq.schedule(a, 4); // deschedule + schedule is legal...
    EXPECT_DEATH(eq.schedule(a, 4), "double-schedule"); // ...twice is not
}

#endif // !NDEBUG

// Intrusive-event coverage: the steady-state component pattern, plus
// the schedule/deschedule/reschedule interleavings the ported models
// rely on.

TEST(EventQueueIntrusive, ScheduleDescheduleReschedule)
{
    EventQueue eq;
    std::vector<std::pair<int, Cycle>> log;
    LogEvent a;
    a.eq = &eq;
    a.log = &log;
    a.id = 1;

    eq.schedule(a, 10);
    EXPECT_TRUE(a.scheduled());
    EXPECT_EQ(a.when(), 10u);
    eq.deschedule(a);
    EXPECT_FALSE(a.scheduled());
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_TRUE(log.empty());
    // Draining stale records must not advance simulated time.
    EXPECT_EQ(eq.now(), 0u);

    eq.schedule(a, 20);
    eq.reschedule(a, 35);
    EXPECT_EQ(a.when(), 35u);
    EXPECT_EQ(eq.run(), 1u);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0], std::make_pair(1, Cycle{35}));
    EXPECT_FALSE(a.scheduled());
}

TEST(EventQueueIntrusive, RescheduleMovesToBackOfSameCycle)
{
    EventQueue eq;
    std::vector<std::pair<int, Cycle>> log;
    std::vector<LogEvent> evs(3);
    for (int i = 0; i < 3; i++) {
        evs[i].eq = &eq;
        evs[i].log = &log;
        evs[i].id = i;
        eq.schedule(evs[i], 40);
    }
    // Rescheduling to the same cycle re-enters FIFO order at the back.
    eq.reschedule(evs[0], 40);
    eq.run();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0].first, 1);
    EXPECT_EQ(log[1].first, 2);
    EXPECT_EQ(log[2].first, 0);
}

TEST(EventQueueIntrusive, SameCycleFifoAcrossNearAndFarScheduling)
{
    // e0..e4 are scheduled for cycle 5000 far in advance; e5..e9 are
    // scheduled for the same cycle from close by (cycle 4900). FIFO
    // order must hold across both scheduling distances.
    EventQueue eq;
    std::vector<std::pair<int, Cycle>> log;
    std::vector<LogEvent> evs(10);
    for (int i = 0; i < 10; i++) {
        evs[i].eq = &eq;
        evs[i].log = &log;
        evs[i].id = i;
    }

    struct Trigger final : Event
    {
        void
        process() override
        {
            for (int i = 5; i < 10; i++)
                eq->schedule((*evs)[i], 5000);
        }
        EventQueue *eq = nullptr;
        std::vector<LogEvent> *evs = nullptr;
    };
    Trigger trig;
    trig.eq = &eq;
    trig.evs = &evs;

    for (int i = 0; i < 5; i++)
        eq.schedule(evs[i], 5000);
    eq.schedule(trig, 4900);
    EXPECT_EQ(eq.run(), 11u);
    ASSERT_EQ(log.size(), 10u);
    for (int i = 0; i < 10; i++) {
        EXPECT_EQ(log[i].first, i);
        EXPECT_EQ(log[i].second, 5000u);
    }
}

TEST(EventQueueIntrusive, SparseFarTimelineRunsInOrder)
{
    EventQueue eq;
    std::vector<std::pair<int, Cycle>> log;
    const Cycle whens[] = {700, 3, 1'000'000'000, 100'000};
    std::vector<LogEvent> evs(4);
    for (int i = 0; i < 4; i++) {
        evs[i].eq = &eq;
        evs[i].log = &log;
        evs[i].id = i;
        eq.schedule(evs[i], whens[i]);
    }
    EXPECT_EQ(eq.run(), 4u);
    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[0], std::make_pair(1, Cycle{3}));
    EXPECT_EQ(log[1], std::make_pair(0, Cycle{700}));
    EXPECT_EQ(log[2], std::make_pair(3, Cycle{100'000}));
    EXPECT_EQ(log[3], std::make_pair(2, Cycle{1'000'000'000}));
    EXPECT_EQ(eq.now(), 1'000'000'000u);
}

TEST(EventQueueIntrusive, LimitedRunDoesNotFireFarWorkEarly)
{
    // A limited run can scan (and internally reorganize) the timeline
    // well past where simulated time ends up. Far work touched by that
    // scan must still fire at exactly its own cycle in a later run.
    EventQueue eq;
    std::vector<std::pair<int, Cycle>> log;

    LogEvent far, dummy;
    far.eq = dummy.eq = &eq;
    far.log = dummy.log = &log;
    far.id = 2;
    dummy.id = -1;

    // Runs at 1700 and leaves a canceled marker at 1750 behind, which
    // keeps the limited run scanning forward past 1700 instead of
    // jumping straight to the far event.
    struct Planter final : Event
    {
        void
        process() override
        {
            eq->schedule(*dummy, 1750);
            eq->deschedule(*dummy);
        }
        EventQueue *eq = nullptr;
        LogEvent *dummy = nullptr;
    };
    Planter planter;
    planter.eq = &eq;
    planter.dummy = &dummy;

    eq.schedule(planter, 1700);
    eq.schedule(far, 2000);

    EXPECT_EQ(eq.run(1960), 1u);
    EXPECT_EQ(eq.now(), 1700u);
    EXPECT_TRUE(log.empty());
    EXPECT_TRUE(far.scheduled());

    EXPECT_EQ(eq.run(), 1u);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0], std::make_pair(2, Cycle{2000}));
    EXPECT_EQ(eq.now(), 2000u);
}

TEST(EventQueueIntrusive, RandomizedOpsMatchOracle)
{
    // Random schedule/deschedule/reschedule interleavings over a pool
    // of events, checked against a sort-based oracle: live events must
    // fire exactly once, at their cycle, ordered by (when, seq).
    Rng rng(0x5eed);
    for (int trial = 0; trial < 8; trial++) {
        EventQueue eq;
        std::vector<std::pair<int, Cycle>> log;
        std::vector<LogEvent> evs(16);
        std::vector<std::pair<Cycle, unsigned>> oracle(16);
        std::vector<bool> live(16, false);
        unsigned stamp = 0;

        for (int i = 0; i < 16; i++) {
            evs[i].eq = &eq;
            evs[i].log = &log;
            evs[i].id = i;
        }
        for (int op = 0; op < 300; op++) {
            unsigned i = unsigned(rng.below(evs.size()));
            Cycle when = 1 + rng.below(800);
            if (!live[i]) {
                eq.schedule(evs[i], when);
                live[i] = true;
                oracle[i] = {when, stamp++};
            } else if (rng.uniform() < 0.5) {
                eq.deschedule(evs[i]);
                live[i] = false;
            } else {
                eq.reschedule(evs[i], when);
                oracle[i] = {when, stamp++};
            }
        }

        struct Expect
        {
            Cycle when;
            unsigned stamp;
            int id;
        };
        std::vector<Expect> expect;
        for (int i = 0; i < 16; i++) {
            if (live[i])
                expect.push_back({oracle[i].first, oracle[i].second, i});
        }
        std::sort(expect.begin(), expect.end(),
                  [](const Expect &a, const Expect &b) {
                      return a.when != b.when ? a.when < b.when
                                              : a.stamp < b.stamp;
                  });

        EXPECT_EQ(eq.pending(), expect.size());
        EXPECT_EQ(eq.run(), expect.size());
        ASSERT_EQ(log.size(), expect.size()) << "trial " << trial;
        for (std::size_t k = 0; k < expect.size(); k++) {
            EXPECT_EQ(log[k].first, expect[k].id) << "trial " << trial;
            EXPECT_EQ(log[k].second, expect[k].when) << "trial " << trial;
        }
        EXPECT_TRUE(eq.empty());
    }
}

// Allocation-freedom: after warm-up, neither the one-shot pool nor
// the queue's record storage may grow, no matter how many events run.

TEST(EventQueue, RecurringEventsRunAllocationFree)
{
    EventQueue eq;
    struct Tick final : Event
    {
        void
        process() override
        {
            fired++;
            if (*running)
                eq->scheduleIn(*this, 1 + (fired & 7));
        }
        EventQueue *eq = nullptr;
        bool *running = nullptr;
        std::uint64_t fired = 0;
    };

    bool running = true;
    std::vector<Tick> ticks(48);
    for (auto &t : ticks) {
        t.eq = &eq;
        t.running = &running;
        eq.scheduleIn(t, 1);
    }

    eq.run(eq.now() + 10'000); // reach the capacity high-water mark
    const std::uint64_t allocs = eq.poolAllocations();
    const std::size_t cap = eq.recordCapacity();
    const std::uint64_t executed = eq.run(eq.now() + 200'000);
    EXPECT_GT(executed, 1'000'000u);
    EXPECT_EQ(eq.poolAllocations(), allocs);
    EXPECT_EQ(eq.recordCapacity(), cap);

    running = false;
    eq.run();
}

TEST(EventQueue, OneShotPoolStopsGrowingAtHighWaterMark)
{
    // Plain DoneCb one-shots: nothing is captured, so the only storage
    // the scheduling path can grow is the queue's own pool.
    EventQueue eq;
    int fired = 0;
    const DoneCb bump{[](void *c, unsigned) { ++*static_cast<int *>(c); },
                      &fired, 0};
    auto burst = [&]() {
        for (int i = 0; i < 100; i++)
            eq.scheduleIn(1 + i % 7, bump);
        eq.run();
    };
    for (int round = 0; round < 4; round++)
        burst();
    const std::uint64_t allocs = eq.poolAllocations();
    EXPECT_LE(allocs, 100u);
    for (int round = 0; round < 4; round++)
        burst();
    EXPECT_EQ(eq.poolAllocations(), allocs);
    EXPECT_EQ(fired, 800);
}

TEST(EventQueue, OneShotPassesItsArgAndToleratesEmptyCallback)
{
    EventQueue eq;
    std::vector<std::pair<unsigned, Cycle>> seen;
    struct Ctx
    {
        EventQueue *eq;
        std::vector<std::pair<unsigned, Cycle>> *seen;
    } ctx{&eq, &seen};
    const DoneCb::Fn record = [](void *c, unsigned arg) {
        auto *x = static_cast<Ctx *>(c);
        x->seen->push_back({arg, x->eq->now()});
    };
    eq.schedule(4, DoneCb{record, &ctx, 7});
    eq.schedule(4, DoneCb{});              // occupies cycle 4, runs nothing
    eq.schedule(9, DoneCb{});              // the last event moves now()
    eq.schedule(2, DoneCb{record, &ctx, 3});
    EXPECT_EQ(eq.run(), 4u);
    EXPECT_EQ(seen, (std::vector<std::pair<unsigned, Cycle>>{{3, 2},
                                                             {7, 4}}));
    EXPECT_EQ(eq.now(), 9u);
}

// EventPool: the one pinned, free-listed arena behind every pooled
// event (the queue's one-shots, cache accesses and responses, DRAM
// completions, OoO exec events).

namespace {

struct PoolOwner
{
    int id = 0;
};

/** ResponseEvent-shaped: an owner pointer and a reusable vector. */
struct PooledEvent final : Event
{
    void process() override {}
    PoolOwner *owner = nullptr;
    std::vector<int> waiters;
};

} // namespace

TEST(EventPool, SetsOwnerAndReusesLifo)
{
    PoolOwner o;
    EventPool<PooledEvent> pool(&o);
    PooledEvent &a = pool.acquire();
    PooledEvent &b = pool.acquire();
    PooledEvent &c = pool.acquire();
    EXPECT_EQ(a.owner, &o);
    EXPECT_EQ(c.owner, &o);
    EXPECT_NE(&a, &b);
    pool.release(b);
    pool.release(c);
    // Last released, first reused.
    EXPECT_EQ(&pool.acquire(), &c);
    EXPECT_EQ(&pool.acquire(), &b);
    EXPECT_EQ(pool.size(), 3u);
    EXPECT_EQ(pool.acquire().owner, &o); // a fresh fourth event
    EXPECT_EQ(pool.size(), 4u);
}

TEST(EventPool, AddressesStayStableAcrossGrowth)
{
    PoolOwner o;
    EventPool<PooledEvent> pool(&o);
    std::vector<PooledEvent *> held;
    for (int i = 0; i < 5000; i++) {
        PooledEvent &ev = pool.acquire();
        ev.waiters.assign(1, i);
        held.push_back(&ev);
    }
    // Growing the pool never moved an acquired event.
    for (int i = 0; i < 5000; i++) {
        ASSERT_EQ(held[i]->waiters.size(), 1u);
        EXPECT_EQ(held[i]->waiters[0], i);
        EXPECT_EQ(held[i]->owner, &o);
    }
    std::vector<PooledEvent *> sorted = held;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end());
}

TEST(EventPool, ReusedEventKeepsItsVectorCapacity)
{
    PoolOwner o;
    EventPool<PooledEvent> pool(&o);
    PooledEvent &ev = pool.acquire();
    for (int i = 0; i < 64; i++)
        ev.waiters.push_back(i);
    const int *storage = ev.waiters.data();
    ev.waiters.clear(); // what ResponseEvent's owner does before release
    pool.release(ev);
    PooledEvent &again = pool.acquire();
    ASSERT_EQ(&again, &ev);
    EXPECT_GE(again.waiters.capacity(), 64u);
    EXPECT_EQ(again.waiters.data(), storage);
}

TEST(EventPool, DoesNotGrowPastItsHighWaterMark)
{
    PoolOwner o;
    EventPool<PooledEvent> pool(&o);
    Rng rng(17);
    std::vector<PooledEvent *> live;
    auto churn = [&](unsigned steps) {
        for (unsigned s = 0; s < steps; s++) {
            if (live.size() < 32 && (live.empty() || rng.chance(0.5))) {
                live.push_back(&pool.acquire());
            } else {
                std::size_t k = rng.below(live.size());
                pool.release(*live[k]);
                live[k] = live.back();
                live.pop_back();
            }
        }
    };
    // Reach the high-water mark of 32 live events, then free them all.
    for (int i = 0; i < 32; i++)
        live.push_back(&pool.acquire());
    for (PooledEvent *ev : live)
        pool.release(*ev);
    live.clear();
    ASSERT_EQ(pool.size(), 32u);
    // Any interleaving that never holds more than 32 is served from
    // the free list.
    churn(20000);
    EXPECT_EQ(pool.size(), 32u);
}
