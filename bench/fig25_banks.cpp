/**
 * @file
 * Figure 25: sensitivity of zero-skipped DESC to the number of L2
 * banks (1..64): execution time and L2 energy, averaged over the
 * applications, normalized to the 8-bank binary baseline. Paper: big
 * improvement from 1 to 2 banks, minimum around 8, worse beyond due
 * to per-bank overheads.
 */

#include "benchutil.hh"

using namespace desc;

int
main()
{
    auto apps = bench::sweepApps();
    const unsigned bank_counts[] = {1, 2, 4, 8, 16, 32, 64};

    // One batch of app groups: the 8-bank binary baseline, then
    // zero-skipped DESC at each bank count.
    std::vector<sim::SystemConfig> cfgs;
    auto addGroup = [&](encoding::SchemeKind kind, unsigned banks) {
        for (const auto &app : apps) {
            auto cfg = sim::baselineConfig(app);
            cfg.insts_per_thread = bench::kSweepBudget;
            sim::applyScheme(cfg, kind);
            cfg.l2.org.banks = banks;
            cfgs.push_back(cfg);
        }
    };
    addGroup(encoding::SchemeKind::Binary, 8);
    for (unsigned banks : bank_counts)
        addGroup(encoding::SchemeKind::DescZeroSkip, banks);
    const auto runs = bench::runConfigs(cfgs);

    // Summed L2 energy and cycles of app group @p g.
    auto group = [&](std::size_t g, double *energy, double *time) {
        double e = 0, c = 0;
        for (std::size_t a = 0; a < apps.size(); a++) {
            const auto &run = runs[g * apps.size() + a];
            e += run.l2.total();
            c += double(run.result.cycles);
        }
        *energy = e;
        *time = c;
    };

    double base_e, base_t;
    group(0, &base_e, &base_t);

    Table t({"banks", "exec time (norm)", "L2 energy (norm)"});
    for (std::size_t b = 0; b < std::size(bank_counts); b++) {
        double e, c;
        group(b + 1, &e, &c);
        t.row().add(std::uint64_t{bank_counts[b]}).add(c / base_t, 3)
            .add(e / base_e, 3);
    }
    t.print("Figure 25: zero-skipped DESC vs bank count, normalized "
            "to the 8-bank binary baseline (paper: best around 8 "
            "banks)");
    return 0;
}
