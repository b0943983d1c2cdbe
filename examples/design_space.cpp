/**
 * @file
 * Design-space explorer: sweeps bank count, bus width, and chunk size
 * for a chosen application and scheme pair, prints every point, and
 * marks the Pareto frontier in the (energy, delay) plane — the
 * workflow behind the paper's Figure 22.
 *
 * Usage: design_space [app]     (default: MG)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/runner.hh"

using namespace desc;

namespace {

struct Point
{
    std::string label;
    double energy;
    double time;
    bool pareto = false;
};

} // namespace

int
main(int argc, char **argv)
{
    const char *app_name = argc > 1 ? argv[1] : "MG";
    const auto &app = workloads::findApp(app_name);

    // Collect the whole sweep, then run it as one parallel batch.
    std::vector<Point> points;
    std::vector<sim::SystemConfig> cfgs;
    auto add = [&](encoding::SchemeKind kind, unsigned banks,
                   unsigned wires, unsigned chunk) {
        sim::SystemConfig cfg = sim::baselineConfig(app);
        cfg.insts_per_thread = 20'000;
        sim::applyScheme(cfg, kind);
        cfg.l2.org.banks = banks;
        cfg.l2.org.bus_wires = wires;
        cfg.l2.scheme_cfg.bus_wires = wires;
        cfg.l2.scheme_cfg.chunk_bits = chunk;
        cfgs.push_back(cfg);
        char label[96];
        std::snprintf(label, sizeof(label), "%-8s b=%-3u w=%-3u c=%u",
                      sim::shortSchemeName(kind).c_str(), banks, wires,
                      chunk);
        points.push_back(Point{label, 0.0, 0.0, false});
    };

    for (unsigned banks : {4u, 8u, 16u}) {
        for (unsigned wires : {64u, 128u}) {
            add(encoding::SchemeKind::Binary, banks, wires, 4);
            for (unsigned chunk : {2u, 4u})
                add(encoding::SchemeKind::DescZeroSkip, banks, wires,
                    chunk);
        }
    }
    const auto runs = sim::globalRunner().run(cfgs);
    for (std::size_t i = 0; i < points.size(); i++) {
        points[i].energy = runs[i].l2.total() * 1e6;
        points[i].time = double(runs[i].result.cycles);
    }

    // Pareto frontier: no other point is better in both dimensions.
    for (auto &p : points) {
        p.pareto = true;
        for (const auto &q : points) {
            if (q.energy < p.energy && q.time < p.time) {
                p.pareto = false;
                break;
            }
        }
    }

    std::printf("design space for %s (energy in uJ, time in cycles):\n",
                app_name);
    for (const auto &p : points) {
        std::printf("  %s  E=%8.3f  T=%10.0f  %s\n", p.label.c_str(),
                    p.energy, p.time, p.pareto ? "<-- Pareto" : "");
    }
    return 0;
}
