/**
 * @file
 * On-disk memoization of simulated experiment points.
 *
 * Every (application, configuration) data point the figure harnesses
 * evaluate is fully determined by its SystemConfig — simulations are
 * deterministically seeded — so finished AppRuns are serialized to a
 * small binary file keyed by a content hash of the complete scaled
 * configuration and by the model fingerprint, a build-time hash of
 * every simulator source. Re-running a harness (or a different harness
 * that shares points) loads the unchanged points instead of
 * re-simulating them. Any config change, including DESC_SIM_SCALE via
 * the scaled instruction budget, and any change to the model's
 * sources changes the entry key and so invalidates the entry; stale
 * entries are simply never referenced again.
 *
 * Environment:
 *  - DESC_SIM_CACHE=0 disables the cache entirely;
 *  - DESC_SIM_CACHE_DIR overrides the location (default
 *    ".desc-runcache" under the current directory);
 *  - DESC_RUN_MANIFEST=<path> appends one JSON line per executed run
 *    (config hash, model fingerprint, app, seed, wall time, cached
 *    flag, headline stats) — a machine-readable profile of what a
 *    harness did.
 *
 * All entry points are thread-safe; the parallel Runner calls them
 * from every worker.
 */

#ifndef DESC_SIM_RUNCACHE_HH
#define DESC_SIM_RUNCACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/stats.hh"
#include "sim/experiment.hh"

namespace desc::sim {

/**
 * Content hash of the full configuration: every field that can change
 * a simulation's outcome, including the post-DESC_SIM_SCALE
 * instruction budget, plus a format-version salt so serialization
 * layout changes invalidate old caches.
 */
std::uint64_t configHash(const SystemConfig &cfg);

/**
 * Hash of every simulator source (src/, by relative path and
 * content), generated at configure time. Changes whenever the model
 * does; configHash() deliberately leaves it out.
 */
std::uint64_t modelFingerprint();

/**
 * A directory of serialized AppRuns. An entry is keyed by configHash()
 * together with the model fingerprint of the build that wrote it, in
 * both the file name and the header, so a build with a different model
 * never loads it.
 */
class RunCache
{
  public:
    /** Cache rooted at @p dir for results of the model @p model; an
     *  empty dir disables the cache. */
    explicit RunCache(std::string dir,
                      std::uint64_t model = modelFingerprint());

    /** Cache configured from the environment (see file comment). */
    static RunCache fromEnv();

    bool enabled() const { return !_dir.empty(); }
    const std::string &dir() const { return _dir; }

    /** Load the entry for @p key; nullopt on miss or unreadable
     *  (corrupt / stale-format) entry. */
    std::optional<AppRun> load(std::uint64_t key) const;

    /** Persist @p run under @p key (atomic: write + rename). */
    void store(std::uint64_t key, const AppRun &run) const;

  private:
    std::string path(std::uint64_t key) const;

    std::string _dir;
    std::uint64_t _model;
};

/** The process-wide cache every cached run goes through. */
RunCache &globalRunCache();

/** Repoint (or disable, with "") the global cache; for tests. */
void setGlobalRunCacheDir(const std::string &dir);

/** Aggregate accounting of cached runs in this process. */
struct RunStats
{
    Counter jobs;         //!< points requested
    Counter simulated;    //!< points actually simulated
    Counter cache_hits;   //!< points served from the run cache
    Counter cache_stores; //!< fresh points persisted to the cache
    Average sim_seconds;  //!< wall time per simulated point
    Average load_seconds; //!< wall time per cache hit
    Average queue_seconds; //!< submit-to-start wait per parallel job
};

/** Record one parallel job's submit-to-start wait (Runner workers). */
void recordQueueWait(double seconds);

/** Snapshot of the process-wide run accounting (thread-safe). */
RunStats runStats();

/** One-line human-readable summary of runStats() for harnesses. */
std::string runSummaryLine();

/**
 * Run one already-scaled configuration through the global cache:
 * load on hit, otherwise simulate, time, and store. This is the
 * single execution path shared by runApp() and the parallel Runner,
 * which also makes it the choke point for run-level observability:
 * every run (hit or miss) is offered to the DESC_STATS_OUT sidecar
 * (sim/statdump.hh) and appended to the DESC_RUN_MANIFEST journal.
 */
AppRun runAppCached(const SystemConfig &scaled_cfg);

} // namespace desc::sim

#endif // DESC_SIM_RUNCACHE_HH
