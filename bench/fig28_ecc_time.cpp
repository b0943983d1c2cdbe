/**
 * @file
 * Figure 28: execution time under SECDED ECC for binary encoding and
 * zero-skipped DESC at various (W, S) points, where W is the data-bus
 * width and S the Hamming segment size: 64-64, 128-128 binary and
 * 128-64, 128-128 DESC, normalized to 64-bit binary with the (72,64)
 * code. Paper: DESC incurs ~1% over binary.
 */

#include "benchutil.hh"

using namespace desc;
using encoding::SchemeKind;

namespace {

sim::SystemConfig
eccConfig(const workloads::AppParams &app, SchemeKind kind,
          unsigned wires, unsigned segment)
{
    auto cfg = sim::baselineConfig(app);
    cfg.insts_per_thread = bench::kAppBudget;
    sim::applyScheme(cfg, kind);
    cfg.l2.org.bus_wires = wires;
    cfg.l2.scheme_cfg.bus_wires = wires;
    cfg.l2.ecc = true;
    cfg.l2.ecc_segment_bits = segment;
    return cfg;
}

} // namespace

int
main()
{
    struct Config
    {
        const char *name;
        SchemeKind kind;
        unsigned wires, segment;
    };
    const Config configs[] = {
        {"64-64 Binary", SchemeKind::Binary, 64, 64},
        {"128-128 Binary", SchemeKind::Binary, 128, 128},
        {"128-64 DESC", SchemeKind::DescZeroSkip, 128, 64},
        {"128-128 DESC", SchemeKind::DescZeroSkip, 128, 128},
    };

    const auto &apps = workloads::parallelApps();
    // One batch, config-major: run c * apps.size() + a.
    std::vector<sim::SystemConfig> cfgs;
    for (const Config &config : configs) {
        for (const auto &app : apps) {
            cfgs.push_back(eccConfig(app, config.kind, config.wires,
                                     config.segment));
        }
    }
    const auto runs = bench::runConfigs(cfgs);

    std::vector<std::vector<double>> cycles(4);
    for (unsigned c = 0; c < 4; c++) {
        for (std::size_t a = 0; a < apps.size(); a++) {
            cycles[c].push_back(
                double(runs[c * apps.size() + a].result.cycles));
        }
    }

    std::vector<std::string> cols = {"app"};
    for (const Config &config : configs)
        cols.push_back(config.name);
    Table t(cols);
    std::vector<std::vector<double>> norm(4);
    for (std::size_t a = 0; a < apps.size(); a++) {
        t.row().add(apps[a].name);
        for (unsigned c = 0; c < 4; c++) {
            double v = cycles[c][a] / cycles[0][a];
            norm[c].push_back(v);
            t.add(v, 3);
        }
    }
    t.row().add("Geomean");
    for (unsigned c = 0; c < 4; c++)
        t.add(geomean(norm[c]), 3);
    t.print("Figure 28: execution time under SECDED ECC, normalized "
            "to 64-bit binary with (72,64) (paper: DESC ~1%)");
    return 0;
}
