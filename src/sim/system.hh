/**
 * @file
 * Whole-system assembly and run driver.
 *
 * Builds the machine of Table 1 — eight 4-way-multithreaded in-order
 * cores (or one out-of-order core), per-core L1s, the shared L2 with
 * the configured transfer scheme, DDR3 memory — binds the synthetic
 * workload to every hardware thread, runs to completion, and returns
 * the activity statistics the energy models consume.
 */

#ifndef DESC_SIM_SYSTEM_HH
#define DESC_SIM_SYSTEM_HH

#include <vector>

#include "cache/hierarchy.hh"
#include "workloads/app.hh"

namespace desc::sim {

enum class CpuKind { NiagaraSMT, OutOfOrder };

struct SystemConfig
{
    CpuKind cpu = CpuKind::NiagaraSMT;
    unsigned cores = 8;
    unsigned threads_per_core = 4;

    cache::L2Config l2{};
    cache::L1Config l1{};
    dram::DramConfig dram{};

    /** Retired instructions per hardware thread. */
    std::uint64_t insts_per_thread = 150'000;

    workloads::AppParams app{};
    std::uint64_t seed = 1;
};

struct SimResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double seconds = 0.0;

    cache::HierarchyStats hierarchy{};
    core::ChunkStats chunks{4, 128};

    std::uint64_t dram_reads = 0;
    std::uint64_t dram_writes = 0;

    double
    avgHitDelay() const
    {
        return hierarchy.hit_latency.mean();
    }
};

/**
 * The functional warm-up runSystem gives the L2 before its timed
 * region, as the ordered block ranges an eager walk would prefill():
 * ~70% of the L2 from the leading hot stripes, then shared data, then
 * private data of every thread.
 */
std::vector<cache::WarmupRange> warmupPlan(const SystemConfig &cfg);

/** Build, run to completion, and harvest one simulation. */
SimResult runSystem(const SystemConfig &cfg);

} // namespace desc::sim

#endif // DESC_SIM_SYSTEM_HH
