/**
 * @file
 * Figure 23: execution time of an 8MB S-NUCA-1 cache (128 banks,
 * 128-bit ports, statically routed, 3..13-cycle bank access) with
 * zero-skipped DESC, normalized to binary S-NUCA-1, per application.
 * Paper: ~1% execution-time penalty.
 */

#include "benchutil.hh"

using namespace desc;

namespace {

sim::SystemConfig
snucaConfig(const workloads::AppParams &app, bool use_desc)
{
    auto cfg = sim::baselineConfig(app);
    cfg.insts_per_thread = bench::kAppBudget;
    cfg.l2.snuca = true;
    cfg.l2.org.banks = 128;
    cfg.l2.org.bus_wires = 128;
    cfg.l2.scheme_cfg.bus_wires = 128;
    if (use_desc)
        sim::applyScheme(cfg, encoding::SchemeKind::DescZeroSkip);
    return cfg;
}

} // namespace

int
main()
{
    const auto &apps = workloads::parallelApps();
    // One batch of (binary, ZS-DESC) pairs: runs 2a and 2a + 1.
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &app : apps) {
        cfgs.push_back(snucaConfig(app, false));
        cfgs.push_back(snucaConfig(app, true));
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
        t.row().add(app.name).add(norm, 4);
    }
    t.row().add("Geomean").add(geomean(norms), 4);
    t.print("Figure 23: S-NUCA-1 + zero-skipped DESC execution time, "
            "normalized to binary S-NUCA-1 (paper ~1.01)");
    return 0;
}
