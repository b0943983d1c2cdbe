/**
 * @file
 * Unit tests for the DDR3 FR-FCFS channel model.
 */

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "../sim/thunks.hh"
#include "dram/ddr3.hh"

using namespace desc;
using namespace desc::dram;

namespace {

struct Fixture
{
    sim::EventQueue eq;
    DramSystem dram{eq};
    test::Thunks fn;
};

} // namespace

TEST(Ddr3, SingleAccessCompletes)
{
    Fixture f;
    Cycle done_at = 0;
    f.dram.access(0x1000, false,
                  f.fn([&]() { done_at = f.eq.now(); }));
    f.eq.run();
    EXPECT_GT(done_at, 0u);
    EXPECT_EQ(f.dram.stats().reads.value(), 1u);
    EXPECT_EQ(f.dram.stats().row_misses.value(), 1u);
}

TEST(Ddr3, RowHitIsFasterThanRowMiss)
{
    Fixture f;
    Cycle first = 0, second = 0, third = 0;
    // Same row twice, then a different row in the same bank.
    f.dram.access(0x0000, false, f.fn([&]() { first = f.eq.now(); }));
    f.eq.run();
    Cycle t1 = f.eq.now();
    f.dram.access(0x400, false,
                  f.fn([&]() { second = f.eq.now(); })); // bank 0, row 0
    f.eq.run();
    Cycle hit_latency = second - t1;
    Cycle t2 = f.eq.now();
    f.dram.access(Addr{1} << 20, false,
                  f.fn([&]() { third = f.eq.now(); }));
    f.eq.run();
    Cycle miss_latency = third - t2;
    (void)first;
    EXPECT_LT(hit_latency, miss_latency);
    EXPECT_GE(f.dram.stats().row_hits.value(), 1u);
}

TEST(Ddr3, FrFcfsPrefersRowHits)
{
    // Enqueue a row-miss to bank B then a row-hit to the open row of
    // bank B; with FR-FCFS the hit is served first.
    Fixture f;
    // Open a row first.
    f.dram.access(0x0000, false, sim::DoneCb{});
    f.eq.run();

    std::vector<int> order;
    // Saturate channel 0's overlap (bank 1) so both requests queue.
    DramConfig cfg;
    for (unsigned i = 0; i < cfg.max_overlap; i++)
        f.dram.access((Addr{3} << 20) + 0x80, false, sim::DoneCb{});
    f.dram.access(Addr{5} << 16, false,
                  f.fn([&]() { order.push_back(1); })); // bank 0, row miss
    f.dram.access(0x400, false,
                  f.fn([&]() { order.push_back(2); })); // bank 0, row 0 hit
    f.eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 2);
    EXPECT_EQ(order[1], 1);
}

TEST(Ddr3, ChannelsInterleaveByBlock)
{
    Fixture f;
    // Blocks 0 and 1 land on different channels; they overlap, so the
    // pair completes sooner than two serialized accesses.
    Cycle both = 0;
    unsigned done = 0;
    auto cb = [&]() {
        if (++done == 2)
            both = f.eq.now();
    };
    f.dram.access(0 << 6, false, f.fn(cb));
    f.dram.access(1 << 6, false, f.fn(cb));
    f.eq.run();
    Cycle parallel_time = both;

    Fixture g;
    Cycle serial_end = 0;
    g.dram.access(0 << 6, false, sim::DoneCb{});
    g.eq.run();
    Cycle one = g.eq.now();
    g.dram.access(2 << 6, false,
                  g.fn([&]() { serial_end = g.eq.now(); }));
    g.eq.run();
    EXPECT_LT(parallel_time, one + (serial_end - one));
}

TEST(Ddr3, LatencySamplesAreRecorded)
{
    Fixture f;
    for (int i = 0; i < 10; i++)
        f.dram.access(Addr(i) << 16, false, sim::DoneCb{});
    f.eq.run();
    EXPECT_EQ(f.dram.stats().latency.count(), 10u);
    EXPECT_GT(f.dram.stats().latency.mean(), 0.0);
}

TEST(Ddr3, WritesCounted)
{
    Fixture f;
    f.dram.access(0x40, true, sim::DoneCb{});
    f.eq.run();
    EXPECT_EQ(f.dram.stats().writes.value(), 1u);
    EXPECT_EQ(f.dram.stats().reads.value(), 0u);
}

TEST(Ddr3, SchedulingOrderMatchesGolden)
{
    // Completion order of a deterministic pseudo-random workload,
    // captured from the straightforward queue-scanning FR-FCFS
    // implementation before the per-bank queued_hits index was added.
    // The index is a pure lookup accelerator: any divergence from this
    // sequence means the scheduling policy changed.
    static const unsigned kGolden[] = {
        0, 3, 1, 4, 2, 5, 7, 6, 19, 8, 9, 10, 109, 38, 12, 16, 11, 17,
        13, 65, 117, 14, 31, 66, 21, 22, 98, 23, 15, 69, 44, 86, 25,
        26, 27, 18, 72, 57, 28, 82, 32, 20, 24, 89, 40, 42, 45, 29, 48,
        30, 84, 49, 50, 33, 34, 43, 54, 99, 61, 62, 35, 75, 36, 67, 73,
        81, 37, 159, 39, 166, 144, 155, 110, 145, 195, 176, 90, 190,
        197, 163, 199, 87, 94, 95, 41, 97, 46, 96, 47, 101, 74, 158,
        152, 131, 51, 183, 106, 188, 52, 184, 53, 80, 115, 102, 139,
        56, 85, 126, 104, 55, 111, 100, 112, 113, 58, 59, 186, 114,
        156, 60, 121, 88, 179, 68, 119, 63, 118, 64, 122, 103, 78, 137,
        107, 123, 124, 70, 125, 79, 165, 127, 128, 71, 130, 76, 135,
        173, 168, 161, 194, 143, 148, 77, 146, 83, 147, 91, 187, 151,
        153, 92, 154, 93, 167, 105, 196, 108, 191, 169, 116, 171, 120,
        172, 174, 175, 129, 177, 132, 181, 133, 182, 140, 189, 141,
        185, 193, 192, 134, 136, 138, 142, 149, 150, 157, 160, 164,
        162, 170, 178, 180, 198,
    };
    const Cycle kGoldenFinalCycle = 5195;

    Fixture f;
    std::uint64_t lcg = 12345;
    auto next = [&] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return unsigned(lcg >> 33);
    };
    auto addr_of = [&](unsigned r) {
        return (Addr(r % 7) << 16)        // 7 distinct rows
            | (Addr((r / 7) % 16) << 7)   // bank spread
            | (Addr((r / 113) % 2) << 6); // channel spread
    };

    std::vector<unsigned> order;
    bool second_phase = false;
    for (unsigned i = 0; i < 120; i++) {
        unsigned r = next();
        f.dram.access(addr_of(r), (r & 1) != 0, f.fn([&, i] {
            order.push_back(i);
            // Mid-run burst: later requests arrive while earlier ones
            // drain, so enqueue and issue interleave.
            if (order.size() == 60 && !second_phase) {
                second_phase = true;
                for (unsigned j = 0; j < 80; j++) {
                    unsigned r2 = next();
                    f.dram.access(addr_of(r2), (r2 & 1) != 0,
                                  f.fn([&, j] { order.push_back(120 + j); }));
                }
            }
        }));
    }
    f.eq.run();

    ASSERT_EQ(order.size(), std::size(kGolden));
    for (std::size_t i = 0; i < order.size(); i++)
        ASSERT_EQ(order[i], kGolden[i]) << "divergence at completion " << i;
    EXPECT_EQ(f.eq.now(), kGoldenFinalCycle);
}

TEST(Ddr3, DoneCbArgSurvivesFrFcfsReordering)
{
    // The same pseudo-random workload twice: once with a lambda per
    // request that captures its id, once with one plain DoneCb whose
    // arg is the id. FR-FCFS serves the requests out of issue order;
    // the arg must still name the request that completed.
    auto addr_of = [](unsigned r) {
        return (Addr(r % 5) << 16) | (Addr((r / 5) % 8) << 7)
            | (Addr((r / 40) % 2) << 6);
    };
    auto workload = [&](Fixture &f, auto &&done_for) {
        std::uint64_t lcg = 99;
        for (unsigned i = 0; i < 96; i++) {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            f.dram.access(addr_of(unsigned(lcg >> 33)), false, done_for(i));
        }
        f.eq.run();
    };

    Fixture by_lambda;
    std::vector<unsigned> expect;
    workload(by_lambda, [&](unsigned i) {
        return by_lambda.fn([&expect, i] { expect.push_back(i); });
    });

    Fixture by_arg;
    std::vector<unsigned> got;
    const sim::DoneCb::Fn record = [](void *v, unsigned id) {
        static_cast<std::vector<unsigned> *>(v)->push_back(id);
    };
    workload(by_arg,
             [&](unsigned i) { return sim::DoneCb{record, &got, i}; });

    ASSERT_EQ(expect.size(), 96u);
    EXPECT_FALSE(std::is_sorted(expect.begin(), expect.end()))
        << "the workload must exercise FR-FCFS reordering";
    EXPECT_EQ(got, expect);
    EXPECT_EQ(by_arg.eq.now(), by_lambda.eq.now());
}

TEST(Ddr3, RowHitLatencyMatchesTimingParameters)
{
    Fixture f;
    DramConfig cfg;
    // tCL + tBurst memory cycles at the clock ratio.
    double ratio = cfg.core_ghz / cfg.mem_ghz;
    Cycle expect = Cycle((cfg.tCL + cfg.tBurst) * ratio + 0.999);
    EXPECT_NEAR(double(f.dram.rowHitLatency()), double(expect), 2.0);
}
