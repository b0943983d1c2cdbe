#include "sim/system.hh"

#include <algorithm>
#include <memory>

#include "common/contract.hh"
#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "sim/timeseries.hh"
#include "workloads/backing.hh"
#include "workloads/stream.hh"
#include "workloads/valuemodel.hh"

namespace desc::sim {

SimResult
runSystem(const SystemConfig &cfg)
{
    EventQueue eq;
    workloads::ValueBackingStore backing(cfg.app, cfg.seed);
    workloads::ValueModel values(cfg.app, cfg.seed);

    unsigned num_cores = cfg.cpu == CpuKind::OutOfOrder ? 1 : cfg.cores;
    cache::MemHierarchy mem(eq, cfg.l2, backing, num_cores, cfg.l1,
                            cfg.dram);

    // Functional warmup: the timed region is a short sample of a much
    // longer execution, so the L2 must start with steady-state
    // contents. Fill ~70% of it with the leading stripes of every
    // region the threads touch (hot sets first, then shared and
    // private data, round-robin).
    {
        unsigned threads = cfg.cpu == CpuKind::OutOfOrder
            ? 1
            : cfg.cores * cfg.threads_per_core;
        std::uint64_t budget_blocks =
            cfg.l2.org.capacity_bytes / cfg.l2.org.block_bytes * 7 / 10;
        for (unsigned t = 0; t < threads && budget_blocks > 0; t++) {
            Addr base = workloads::AppStream::hotBase(t);
            for (Addr a = 0; a < cfg.app.hot_bytes && budget_blocks > 0;
                 a += 64, budget_blocks--) {
                mem.prefill(base + a);
            }
        }
        std::uint64_t shared_blocks = std::min<std::uint64_t>(
            cfg.app.ws_shared / 64, budget_blocks / 2);
        for (Addr a = 0; a < shared_blocks; a++)
            mem.prefill(workloads::AppStream::sharedBase() + a * 64);
        budget_blocks -= shared_blocks;
        std::uint64_t priv_blocks = std::min<std::uint64_t>(
            cfg.app.ws_private / 64, budget_blocks / threads);
        for (unsigned t = 0; t < threads; t++) {
            Addr base = workloads::AppStream::privateBase(t);
            for (Addr a = 0; a < priv_blocks; a++)
                mem.prefill(base + a * 64);
        }
    }

    std::vector<std::unique_ptr<cpu::InOrderCore>> smt_cores;
    std::unique_ptr<cpu::OooCore> ooo_core;

    if (cfg.cpu == CpuKind::NiagaraSMT) {
        for (unsigned c = 0; c < cfg.cores; c++) {
            std::vector<std::unique_ptr<cpu::InstructionStream>> streams;
            for (unsigned t = 0; t < cfg.threads_per_core; t++) {
                unsigned tid = c * cfg.threads_per_core + t;
                streams.push_back(std::make_unique<workloads::AppStream>(
                    cfg.app, values, tid, c, cfg.seed));
            }
            smt_cores.push_back(std::make_unique<cpu::InOrderCore>(
                eq, mem, c, std::move(streams), cfg.insts_per_thread));
        }
        for (auto &core : smt_cores)
            core->start();
    } else {
        auto stream = std::make_unique<workloads::AppStream>(
            cfg.app, values, 0, 0, cfg.seed);
        ooo_core = std::make_unique<cpu::OooCore>(
            eq, mem, 0, std::move(stream),
            cfg.insts_per_thread * cfg.threads_per_core);
        ooo_core->start();
    }

    std::uint64_t every = timeseries::everyCycles();
    if (every == 0) {
        eq.run();
    } else {
        // Segmented run: pause at every snapshot boundary and record
        // the counters. No events are scheduled and time never
        // advances past natural quiescence, so the simulation result
        // is bit-identical to the single eq.run() above.
        std::string label = timeseries::runLabel(cfg);
        auto instructions = [&]() {
            std::uint64_t n = 0;
            if (cfg.cpu == CpuKind::NiagaraSMT) {
                for (auto &core : smt_cores)
                    n += core->stats().instructions.value();
            } else {
                n = ooo_core->instructions();
            }
            return n;
        };
        for (Cycle next = every; !eq.empty(); next += every) {
            eq.run(next);
            if (eq.empty())
                break;
            const auto &hs = mem.stats();
            timeseries::Row row;
            row.cycle = next;
            row.instructions = instructions();
            row.l2_hits = hs.l2_hits.value();
            row.l2_misses = hs.l2_misses.value();
            row.read_transfers = hs.read_transfers.value();
            row.write_transfers = hs.write_transfers.value();
            row.data_flips = hs.data_flips;
            row.ctrl_flips = hs.ctrl_flips;
            row.dram_reads = mem.dramSystem().stats().reads.value();
            row.dram_writes = mem.dramSystem().stats().writes.value();
            timeseries::record(label, row);
        }
    }

    // The queue drains only once every thread retired its budget and
    // all in-flight memory traffic completed.
    if (cfg.cpu == CpuKind::NiagaraSMT) {
        for (auto &core : smt_cores)
            DESC_ASSERT(core->done(), "core did not finish (deadlock?)");
    } else {
        DESC_ASSERT(ooo_core->done(), "OoO core did not finish");
    }

    SimResult result;
    result.cycles = eq.now();
    result.seconds = double(result.cycles) / (cfg.l2.org.clock_ghz * 1e9);
    if (cfg.cpu == CpuKind::NiagaraSMT) {
        for (auto &core : smt_cores)
            result.instructions += core->stats().instructions.value();
    } else {
        result.instructions = ooo_core->instructions();
    }
    result.hierarchy = mem.stats();
    result.chunks = mem.chunkStats();
    result.dram_reads = mem.dramSystem().stats().reads.value();
    result.dram_writes = mem.dramSystem().stats().writes.value();
    return result;
}

} // namespace desc::sim
