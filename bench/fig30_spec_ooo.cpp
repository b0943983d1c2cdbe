/**
 * @file
 * Figure 30: execution time of single-threaded SPEC CPU 2006
 * applications on the 4-issue out-of-order core with zero-skipped
 * DESC at the L2, normalized to binary encoding. Paper: +6% on
 * average — the latency-sensitive design tolerates DESC's longer
 * transfer windows far less than the multithreaded machine.
 */

#include "benchutil.hh"

using namespace desc;

int
main()
{
    const auto &apps = workloads::specApps();
    // One batch of (binary, ZS-DESC) pairs: runs 2a and 2a + 1.
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &app : apps) {
        auto base_cfg = sim::baselineConfig(app);
        base_cfg.cpu = sim::CpuKind::OutOfOrder;
        base_cfg.threads_per_core = 1;
        base_cfg.insts_per_thread = 4 * bench::kAppBudget;
        cfgs.push_back(base_cfg);
        sim::applyScheme(base_cfg, encoding::SchemeKind::DescZeroSkip);
        cfgs.push_back(base_cfg);
    }
    const auto runs = bench::runConfigs(cfgs);

    Table t({"app", "exec time (norm)"});
    std::vector<double> norms;
    for (std::size_t a = 0; a < apps.size(); a++) {
        const auto &app = apps[a];
        const auto &base = runs[2 * a];
        const auto &with_desc = runs[2 * a + 1];
        double norm = double(with_desc.result.cycles)
            / double(base.result.cycles);
        norms.push_back(norm);
        t.row().add(app.name).add(norm, 3);
    }
    t.row().add("Geomean").add(geomean(norms), 3);
    t.print("Figure 30: out-of-order execution time with zero-skipped "
            "DESC, normalized to binary (paper geomean ~1.06)");
    return 0;
}
