/**
 * @file
 * Figure 24: L2 energy of an 8MB S-NUCA-1 cache with zero-skipped
 * DESC, normalized to binary S-NUCA-1, per application. Paper: 1.62x
 * cache energy reduction (1.64x average power, 1.59x energy-delay).
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

    Table t({"app", "L2 energy (norm)", "L2 power (norm)",
             "EDP (norm)"});
    std::vector<double> e_norms, p_norms, edp_norms;
    for (std::size_t a = 0; a < apps.size(); a++) {
        const auto &app = apps[a];
        const auto &base = runs[2 * a];
        const auto &with_desc = runs[2 * a + 1];
        double e = with_desc.l2.total() / base.l2.total();
        double time_ratio = double(with_desc.result.cycles)
            / double(base.result.cycles);
        double p = e / time_ratio;
        double edp = e * time_ratio;
        e_norms.push_back(e);
        p_norms.push_back(p);
        edp_norms.push_back(edp);
        t.row().add(app.name).add(e, 3).add(p, 3).add(edp, 3);
    }
    t.row().add("Geomean").add(geomean(e_norms), 3)
        .add(geomean(p_norms), 3).add(geomean(edp_norms), 3);
    t.print("Figure 24: S-NUCA-1 + zero-skipped DESC L2 energy, "
            "normalized to binary S-NUCA-1 (paper: 1.62x energy, "
            "1.64x power, 1.59x EDP)");
    return 0;
}
