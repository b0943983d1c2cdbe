// Fixture: a bench harness that simulates its points one at a time
// instead of submitting them as one batch.
// Expected finding: serial-harness.

#include "benchutil.hh"

using namespace desc;

int
main()
{
    double total = 0;
    for (const auto &app : workloads::parallelApps()) {
        auto cfg = sim::baselineConfig(app);
        total += sim::runApp(cfg).l2.total();
    }
    std::printf("%f\n", total);
    return 0;
}
