/**
 * @file
 * Figure 21: average L2 hit delay (cycles) under conventional binary
 * encoding and zero-skipped DESC on 64- and 128-wire data buses, per
 * application. Paper: DESC adds 31.2 cycles at 64 wires and 8.45 at
 * 128 wires (10% / 2% slowdowns).
 */

#include "benchutil.hh"

using namespace desc;
using encoding::SchemeKind;

int
main()
{
    struct Config
    {
        const char *name;
        SchemeKind kind;
        unsigned wires;
    };
    const Config configs[] = {
        {"64-bit Binary", SchemeKind::Binary, 64},
        {"128-bit Binary", SchemeKind::Binary, 128},
        {"64-bit DESC", SchemeKind::DescZeroSkip, 64},
        {"128-bit DESC", SchemeKind::DescZeroSkip, 128},
    };

    const auto &apps = workloads::parallelApps();
    // One batch, config-major: run c * apps.size() + a.
    std::vector<sim::SystemConfig> cfgs;
    for (const Config &config : configs) {
        for (const auto &app : apps) {
            auto cfg = sim::baselineConfig(app);
            cfg.insts_per_thread = bench::kAppBudget;
            sim::applyScheme(cfg, config.kind);
            cfg.l2.org.bus_wires = config.wires;
            cfg.l2.scheme_cfg.bus_wires = config.wires;
            cfgs.push_back(cfg);
        }
    }
    const auto runs = bench::runConfigs(cfgs);

    std::vector<std::vector<double>> delay(4);
    for (unsigned c = 0; c < 4; c++) {
        for (std::size_t a = 0; a < apps.size(); a++) {
            delay[c].push_back(
                runs[c * apps.size() + a].result.avgHitDelay());
        }
    }

    std::vector<std::string> cols = {"app"};
    for (const Config &config : configs)
        cols.push_back(config.name);
    Table t(cols);
    for (std::size_t a = 0; a < apps.size(); a++) {
        t.row().add(apps[a].name);
        for (unsigned c = 0; c < 4; c++)
            t.add(delay[c][a], 2);
    }
    t.row().add("Average");
    for (unsigned c = 0; c < 4; c++) {
        double sum = 0;
        for (double d : delay[c])
            sum += d;
        t.add(sum / double(apps.size()), 2);
    }
    t.print("Figure 21: average L2 hit delay in cycles (paper: DESC "
            "adds ~31.2 at 64 wires, ~8.45 at 128 wires)");
    return 0;
}
