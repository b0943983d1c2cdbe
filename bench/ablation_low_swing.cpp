/**
 * @file
 * Ablation (Sections 1-2): DESC composes with low-swing interconnect.
 *
 * The paper argues that activity-factor techniques like DESC are
 * "broadly applicable since they can be used on interconnects with
 * different characteristics (e.g., transmission lines or low-swing
 * wires)". This harness runs binary and zero-skipped DESC on both
 * full-swing and low-swing H-trees: low-swing cuts the per-transition
 * cost, and DESC still removes the same fraction of transitions on
 * top of it.
 */

#include <cstdio>

#include "benchutil.hh"

using namespace desc;
using encoding::SchemeKind;

int
main()
{
    auto apps = bench::sweepApps();

    // One batch of four app groups, in the order of the table rows.
    std::vector<sim::SystemConfig> cfgs;
    for (bool low_swing : {false, true}) {
        for (SchemeKind kind :
             {SchemeKind::Binary, SchemeKind::DescZeroSkip}) {
            for (const auto &app : apps) {
                auto cfg = sim::baselineConfig(app);
                cfg.insts_per_thread = bench::kSweepBudget;
                sim::applyScheme(cfg, kind);
                cfg.l2.org.low_swing = low_swing;
                cfgs.push_back(cfg);
            }
        }
    }
    const auto runs = bench::runConfigs(cfgs);

    // Summed L2 energy and cycles of app group @p g.
    auto group = [&](std::size_t g) {
        double e = 0, t = 0;
        for (std::size_t a = 0; a < apps.size(); a++) {
            const auto &run = runs[g * apps.size() + a];
            e += run.l2.total();
            t += double(run.result.cycles);
        }
        return std::make_pair(e, t);
    };

    auto [bin_fs_e, bin_fs_t] = group(0);
    auto [desc_fs_e, desc_fs_t] = group(1);
    auto [bin_ls_e, bin_ls_t] = group(2);
    auto [desc_ls_e, desc_ls_t] = group(3);

    Table t({"interconnect", "scheme", "L2 energy (norm)",
             "exec time (norm)"});
    t.row().add("full-swing").add("Binary").add(1.0, 3).add(1.0, 3);
    t.row().add("full-swing").add("ZS-DESC")
        .add(desc_fs_e / bin_fs_e, 3).add(desc_fs_t / bin_fs_t, 3);
    t.row().add("low-swing").add("Binary")
        .add(bin_ls_e / bin_fs_e, 3).add(bin_ls_t / bin_fs_t, 3);
    t.row().add("low-swing").add("ZS-DESC")
        .add(desc_ls_e / bin_fs_e, 3).add(desc_ls_t / bin_fs_t, 3);
    t.print("Ablation: DESC on full-swing vs low-swing H-trees, "
            "normalized to full-swing binary");

    std::printf("DESC reduction on full-swing wires: %.2fx; on "
                "low-swing wires: %.2fx (composes: %s)\n",
                bin_fs_e / desc_fs_e, bin_ls_e / desc_ls_e,
                bin_ls_e / desc_ls_e > 1.2 ? "yes" : "NO");
    return 0;
}
