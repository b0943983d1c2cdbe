/**
 * @file
 * Figure 20: execution time of every data-communication scheme,
 * averaged over the sixteen parallel applications and normalized to
 * binary encoding. Paper: the skipped DESC variants cost <2%, the
 * compression/invert baselines ~1%.
 */

#include "benchutil.hh"

using namespace desc;

int
main()
{
    const auto &apps = workloads::parallelApps();
    const unsigned n = encoding::kNumSchemes;

    // One batch, scheme-major: run s * apps.size() + a.
    std::vector<sim::SystemConfig> cfgs;
    for (unsigned s = 0; s < n; s++) {
        for (const auto &app : apps) {
            auto cfg = sim::baselineConfig(app);
            cfg.insts_per_thread = bench::kAppBudget;
            sim::applyScheme(cfg, core::allSchemeKinds()[s]);
            cfgs.push_back(cfg);
        }
    }
    const auto runs = bench::runConfigs(cfgs);

    std::vector<std::vector<double>> cycles(n);
    for (unsigned s = 0; s < n; s++) {
        for (std::size_t a = 0; a < apps.size(); a++) {
            cycles[s].push_back(
                double(runs[s * apps.size() + a].result.cycles));
        }
    }

    Table t({"scheme", "execution time (norm)"});
    for (unsigned s = 0; s < n; s++) {
        std::vector<double> norm;
        for (std::size_t a = 0; a < apps.size(); a++)
            norm.push_back(cycles[s][a] / cycles[0][a]);
        t.row()
            .add(sim::shortSchemeName(core::allSchemeKinds()[s]))
            .add(geomean(norm), 4);
    }
    t.print("Figure 20: execution time normalized to binary encoding "
            "(paper: ZS/LVS DESC < 1.02, baselines ~1.01)");
    return 0;
}
