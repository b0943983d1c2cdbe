/**
 * @file
 * Figure 19: overall processor energy with zero-skipped DESC at the
 * L2, per application, normalized to binary encoding, split into the
 * L2 and the other hardware units. Paper: 7% processor energy saving.
 */

#include "benchutil.hh"

using namespace desc;

int
main()
{
    const auto &apps = workloads::parallelApps();
    Table t({"app", "L2 share", "other units share", "total (norm)"});
    std::vector<double> totals;

    // One batch of (binary, ZS-DESC) pairs: runs 2a and 2a + 1.
    std::vector<sim::SystemConfig> cfgs;
    for (const auto &app : apps) {
        auto base_cfg = sim::baselineConfig(app);
        base_cfg.insts_per_thread = bench::kAppBudget;
        cfgs.push_back(base_cfg);
        sim::applyScheme(base_cfg, encoding::SchemeKind::DescZeroSkip);
        cfgs.push_back(base_cfg);
    }
    const auto runs = bench::runConfigs(cfgs);

    for (std::size_t a = 0; a < apps.size(); a++) {
        const auto &app = apps[a];
        const auto &base = runs[2 * a];
        const auto &with_desc = runs[2 * a + 1];

        double base_total = base.processor.total();
        double l2_share = with_desc.l2.total() / base_total;
        double other_share =
            (with_desc.processor.total() - with_desc.l2.total())
            / base_total;
        totals.push_back(l2_share + other_share);
        t.row()
            .add(app.name)
            .add(l2_share, 3)
            .add(other_share, 3)
            .add(l2_share + other_share, 3);
    }
    t.row().add("Geomean").add("").add("").add(geomean(totals), 3);
    t.print("Figure 19: processor energy with zero-skipped DESC, "
            "normalized to binary (paper geomean ~0.93)");

    std::printf("processor energy saving: %.1f%% (paper ~7%%)\n",
                100.0 * (1.0 - geomean(totals)));
    return 0;
}
