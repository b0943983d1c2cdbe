/**
 * @file
 * Figure 18: contribution of static and dynamic energy to the overall
 * L2 energy for every data-transfer technique, averaged over the
 * sixteen parallel applications and normalized to binary encoding.
 * Paper: zero-skipped DESC halves dynamic energy while adding ~3%
 * static energy.
 */

#include "benchutil.hh"

using namespace desc;

int
main()
{
    auto apps = bench::sweepApps();
    const unsigned n = encoding::kNumSchemes;

    // One batch, scheme-major: run s * apps.size() + a.
    std::vector<sim::SystemConfig> cfgs;
    for (unsigned s = 0; s < n; s++) {
        for (const auto &app : apps) {
            auto cfg = sim::baselineConfig(app);
            cfg.insts_per_thread = bench::kSweepBudget;
            sim::applyScheme(cfg, core::allSchemeKinds()[s]);
            cfgs.push_back(cfg);
        }
    }
    const auto runs = bench::runConfigs(cfgs);

    std::vector<double> stat(n, 0.0), dyn(n, 0.0);
    for (unsigned s = 0; s < n; s++) {
        for (std::size_t a = 0; a < apps.size(); a++) {
            const auto &run = runs[s * apps.size() + a];
            stat[s] += run.l2.static_energy;
            dyn[s] += run.l2.dynamic();
        }
    }
    const double base_total = stat[0] + dyn[0];

    Table t({"scheme", "static (norm)", "dynamic (norm)",
             "total (norm)"});
    for (unsigned s = 0; s < n; s++) {
        t.row()
            .add(sim::shortSchemeName(core::allSchemeKinds()[s]))
            .add(stat[s] / base_total, 3)
            .add(dyn[s] / base_total, 3)
            .add((stat[s] + dyn[s]) / base_total, 3);
    }
    t.print("Figure 18: static/dynamic L2 energy, normalized to the "
            "binary total (paper: ZS-DESC halves dynamic, +3% static)");

    std::printf("ZS-DESC dynamic reduction: %.2fx (paper ~2x); "
                "static overhead: %+.1f%%\n",
                dyn[0] / dyn[6], 100.0 * (stat[6] / stat[0] - 1.0));
    return 0;
}
