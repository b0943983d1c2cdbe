/**
 * @file
 * Figure 16: L2 cache energy achieved by all eight data-transfer
 * techniques, per application, normalized to conventional binary
 * encoding. Paper headline: zero-skipped DESC 1.81x, last-value
 * skipped 1.77x, basic DESC ~11%, bus-invert ~19%, DZC ~10%.
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

    // energies[scheme][app]
    std::vector<std::vector<double>> energies(n);
    for (unsigned s = 0; s < n; s++) {
        for (std::size_t a = 0; a < apps.size(); a++)
            energies[s].push_back(runs[s * apps.size() + a].l2.total());
    }

    std::vector<std::string> cols = {"app"};
    for (unsigned s = 0; s < n; s++)
        cols.push_back(sim::shortSchemeName(core::allSchemeKinds()[s]));
    Table t(cols);

    std::vector<std::vector<double>> norm(n);
    for (std::size_t a = 0; a < apps.size(); a++) {
        t.row().add(apps[a].name);
        for (unsigned s = 0; s < n; s++) {
            double v = energies[s][a] / energies[0][a];
            norm[s].push_back(v);
            t.add(v, 3);
        }
    }
    t.row().add("Geomean");
    for (unsigned s = 0; s < n; s++)
        t.add(geomean(norm[s]), 3);
    t.print("Figure 16: L2 energy normalized to binary encoding "
            "(paper geomeans: DZC 0.90, BIC 0.81, ZS-BIC 0.80, "
            "DESC 0.89, ZS-DESC 0.55, LVS-DESC 0.56)");

    std::printf("zero-skipped DESC reduction: %.2fx (paper 1.81x)\n",
                1.0 / geomean(norm[6]));
    std::printf("last-value DESC reduction:   %.2fx (paper 1.77x)\n",
                1.0 / geomean(norm[7]));
    return 0;
}
