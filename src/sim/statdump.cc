#include "sim/statdump.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/env.hh"
#include "common/json.hh"
#include "common/trace.hh"
#include "sim/runcache.hh"

namespace desc::sim {

namespace {

std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (std::size_t dot; (dot = path.find('.', start)) != std::string::npos;
         start = dot + 1)
        parts.push_back(path.substr(start, dot - start));
    parts.push_back(path.substr(start));
    return parts;
}

/** A JSON number, or null for values JSON cannot represent. */
void
writeJsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

void
writeJsonValue(std::ostream &os, const StatRegistry::Entry &e)
{
    using Kind = StatRegistry::Kind;
    switch (e.kind) {
      case Kind::Counter:
        os << e.counter->value();
        return;
      case Kind::Int:
        os << e.integer;
        return;
      case Kind::Scalar:
        writeJsonNumber(os, e.scalar);
        return;
      case Kind::Text:
        writeJsonString(os, e.text);
        return;
      case Kind::Average: {
        const Average &a = *e.average;
        os << "{\"count\": " << a.count() << ", \"sum\": ";
        writeJsonNumber(os, a.sum());
        os << ", \"mean\": ";
        writeJsonNumber(os, a.mean());
        os << ", \"min\": ";
        writeJsonNumber(os, a.min());
        os << ", \"max\": ";
        writeJsonNumber(os, a.max());
        os << "}";
        return;
      }
      case Kind::Histogram: {
        const Histogram &h = *e.histogram;
        os << "{\"total\": " << h.total() << ", \"overflow\": "
           << h.overflow() << ", \"mean\": ";
        writeJsonNumber(os, h.mean());
        os << ", \"bins\": [";
        for (std::size_t i = 0; i < h.numBins(); i++)
            os << (i ? ", " : "") << h.bin(unsigned(i));
        os << "]}";
        return;
      }
    }
    DESC_PANIC("bad stat entry kind");
}

void
writeIndent(std::ostream &os, unsigned level)
{
    for (unsigned i = 0; i < level; i++)
        os << "  ";
}

} // namespace

void
writeRegistryJson(std::ostream &os, const StatRegistry &reg,
                  unsigned indent)
{
    os << "{";
    // The open interior groups, innermost last, and whether each open
    // scope (index 0 = the root object) already holds an item.
    std::vector<std::string> open;
    std::vector<bool> has_item = {false};

    auto separate = [&]() {
        os << (has_item.back() ? ",\n" : "\n");
        has_item.back() = true;
        writeIndent(os, indent + unsigned(open.size()) + 1);
    };

    for (const auto &[path, entry] : reg.entries()) {
        auto parts = splitPath(path);
        std::size_t interior = parts.size() - 1;

        std::size_t common = 0;
        while (common < open.size() && common < interior
               && open[common] == parts[common])
            common++;
        while (open.size() > common) {
            os << "\n";
            writeIndent(os, indent + unsigned(open.size()));
            os << "}";
            open.pop_back();
            has_item.pop_back();
        }
        for (std::size_t i = common; i < interior; i++) {
            separate();
            writeJsonString(os, parts[i]);
            os << ": {";
            open.push_back(parts[i]);
            has_item.push_back(false);
        }

        separate();
        writeJsonString(os, parts.back());
        os << ": ";
        writeJsonValue(os, entry);
    }

    while (!open.empty()) {
        os << "\n";
        writeIndent(os, indent + unsigned(open.size()));
        os << "}";
        open.pop_back();
    }
    os << "\n";
    writeIndent(os, indent);
    os << "}";
}

namespace {

void
csvRow(std::ostream &os, const std::string &run_label,
       const std::string &path, const std::string &value)
{
    os << run_label << ',' << path << ',' << value << '\n';
}

std::string
csvNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
writeRegistryCsv(std::ostream &os, const StatRegistry &reg,
                 const std::string &run_label)
{
    using Kind = StatRegistry::Kind;
    for (const auto &[path, e] : reg.entries()) {
        switch (e.kind) {
          case Kind::Counter:
            csvRow(os, run_label, path,
                   std::to_string(e.counter->value()));
            break;
          case Kind::Int:
            csvRow(os, run_label, path, std::to_string(e.integer));
            break;
          case Kind::Scalar:
            csvRow(os, run_label, path, csvNumber(e.scalar));
            break;
          case Kind::Text:
            // Stat texts are short identifiers; no quoting needed.
            csvRow(os, run_label, path, e.text);
            break;
          case Kind::Average:
            csvRow(os, run_label, path + ".count",
                   std::to_string(e.average->count()));
            csvRow(os, run_label, path + ".sum",
                   csvNumber(e.average->sum()));
            csvRow(os, run_label, path + ".mean",
                   csvNumber(e.average->mean()));
            break;
          case Kind::Histogram: {
            const Histogram &h = *e.histogram;
            csvRow(os, run_label, path + ".total",
                   std::to_string(h.total()));
            csvRow(os, run_label, path + ".overflow",
                   std::to_string(h.overflow()));
            csvRow(os, run_label, path + ".mean", csvNumber(h.mean()));
            for (std::size_t i = 0; i < h.numBins(); i++)
                csvRow(os, run_label, path + ".bin." + std::to_string(i),
                       std::to_string(h.bin(unsigned(i))));
            break;
          }
        }
    }
}

StatRegistry
buildRunRegistry(const SystemConfig &cfg, const AppRun &run,
                 std::uint64_t config_hash,
                 const prof::Profile *profile)
{
    const auto &r = run.result;
    const auto &h = r.hierarchy;

    StatRegistry reg;

    reg.addText("run.app", cfg.app.name, "workload name");
    reg.addText("run.scheme", shortSchemeName(cfg.l2.scheme),
                "L2 transfer-encoding scheme");
    reg.addInt("run.seed", cfg.seed, "deterministic simulation seed");
    reg.addInt("run.config_hash", config_hash,
               "FNV-1a hash of the canonical scaled configuration");
    char model[20];
    std::snprintf(model, sizeof(model), "%016llx",
                  (unsigned long long)modelFingerprint());
    reg.addText("run.model_fingerprint", model,
                "hash of the simulator sources that produced the run");
    reg.addInt("run.cores", cfg.cores, "simulated core count");
    reg.addInt("run.threads_per_core", cfg.threads_per_core,
               "SMT threads per core");
    reg.addInt("run.insts_per_thread", cfg.insts_per_thread,
               "instructions retired per thread");

    reg.addInt("perf.cycles", r.cycles, "simulated core cycles");
    reg.addInt("perf.instructions", r.instructions,
               "instructions retired across all threads");
    reg.addScalar("perf.ipc",
                  double(r.instructions) / double(r.cycles),
                  "instructions per core cycle");
    reg.addScalar("perf.seconds", r.seconds,
                  "simulated wall-clock seconds");

    reg.add("l1.i.accesses", h.l1i_accesses, "L1I lookups");
    reg.add("l1.i.misses", h.l1i_misses, "L1I misses");
    reg.addScalar("l1.i.miss_rate",
                  double(h.l1i_misses.value())
                      / double(std::max<std::uint64_t>(
                          1, h.l1i_accesses.value())),
                  "L1I misses per access");
    reg.add("l1.d.accesses", h.l1d_accesses, "L1D lookups");
    reg.add("l1.d.misses", h.l1d_misses, "L1D misses");
    reg.addScalar("l1.d.miss_rate",
                  double(h.l1d_misses.value())
                      / double(std::max<std::uint64_t>(
                          1, h.l1d_accesses.value())),
                  "L1D misses per access");
    reg.add("l1.upgrades", h.upgrades,
            "store hits on Shared lines (coherence upgrades)");

    reg.add("l2.requests", h.l2_requests, "L2 requests from the L1s");
    reg.add("l2.hits", h.l2_hits, "L2 hits");
    reg.add("l2.misses", h.l2_misses, "L2 misses to DRAM");
    reg.addScalar("l2.hit_rate",
                  double(h.l2_hits.value())
                      / double(std::max<std::uint64_t>(
                          1, h.l2_hits.value() + h.l2_misses.value())),
                  "L2 hits per demand request");
    reg.add("l2.writebacks_in", h.l2_writebacks_in,
            "dirty L1 evictions written back into the L2");
    reg.add("l2.fills", h.l2_fills, "DRAM fills into the L2");
    reg.add("l2.evictions_out", h.l2_evictions_out,
            "dirty L2 evictions written to DRAM");
    reg.add("l2.recalls", h.recalls,
            "coherence recalls of Modified L1 copies");
    reg.add("l2.hit_latency", h.hit_latency,
            "request arrival to data response, in cycles");
    reg.add("l2.transfer_window", h.transfer_window,
            "bank serialization cycles per block transfer");

    reg.add("link.read_transfers", h.read_transfers,
            "blocks moved over the H-tree toward the cores");
    reg.add("link.write_transfers", h.write_transfers,
            "blocks moved over the H-tree toward the banks");
    reg.addScalar("link.data_flips", h.data_flips,
                  "data-wire transitions, distance-weighted");
    reg.addScalar("link.ctrl_flips", h.ctrl_flips,
                  "control-wire transitions, distance-weighted");
    reg.addInt("link.bank_busy_cycles", h.bank_busy_cycles,
               "cycles any bank port spent transferring");

    reg.add("chunks.histogram", r.chunks.histogram(),
            "chunk value distribution (Figure 12)");
    reg.addInt("chunks.total", r.chunks.totalChunks(),
               "chunks observed on the wires");
    reg.addScalar("chunks.zero_fraction", r.chunks.zeroFraction(),
                  "fraction of all-zero chunks");
    reg.addScalar("chunks.last_value_match_fraction",
                  r.chunks.lastValueMatchFraction(),
                  "fraction matching the wire's previous chunk");

    reg.addInt("dram.reads", r.dram_reads, "DRAM read bursts");
    reg.addInt("dram.writes", r.dram_writes, "DRAM write bursts");

    reg.addScalar("energy.l2.htree_dynamic", run.l2.htree_dynamic,
                  "H-tree dynamic energy, joules");
    reg.addScalar("energy.l2.array_dynamic", run.l2.array_dynamic,
                  "array dynamic energy, joules");
    reg.addScalar("energy.l2.aux_dynamic", run.l2.aux_dynamic,
                  "auxiliary (decode/sense) dynamic energy, joules");
    reg.addScalar("energy.l2.static", run.l2.static_energy,
                  "L2 static energy, joules");
    reg.addScalar("energy.l2.dynamic", run.l2.dynamic(),
                  "total L2 dynamic energy, joules");
    reg.addScalar("energy.l2.total", run.l2.total(),
                  "total L2 energy, joules");

    reg.addScalar("energy.processor.core_dynamic",
                  run.processor.core_dynamic,
                  "core dynamic energy, joules");
    reg.addScalar("energy.processor.core_static",
                  run.processor.core_static,
                  "core static energy, joules");
    reg.addScalar("energy.processor.l1", run.processor.l1,
                  "L1 energy, joules");
    reg.addScalar("energy.processor.uncore", run.processor.uncore,
                  "uncore energy, joules");
    reg.addScalar("energy.processor.l2", run.processor.l2,
                  "L2 share of processor energy, joules");
    reg.addScalar("energy.processor.total", run.processor.total(),
                  "total processor energy, joules");

    if (profile) {
        for (unsigned i = 0; i < prof::kNumComponents; i++) {
            const auto &c = profile->comp[i];
            if (c.count == 0 && c.cycles == 0)
                continue;
            std::string base = std::string("prof.")
                + prof::componentName(prof::Component(i));
            reg.addInt(base + ".scopes", c.count,
                       "profiled scope entries during this run");
            reg.addScalar(base + ".self_seconds",
                          double(c.self_ns) * 1e-9,
                          "host seconds in this component, excluding "
                          "nested profiled scopes");
            reg.addScalar(base + ".total_seconds",
                          double(c.total_ns) * 1e-9,
                          "host seconds in this component, including "
                          "nested profiled scopes");
            reg.addInt(base + ".cycles", c.cycles,
                       "simulated cycles attributed to this component");
        }
    }

    return reg;
}

namespace {

struct SidecarRecord
{
    std::string app;
    std::uint64_t config_hash;
    std::uint64_t seq;
    std::string json;
    std::string csv;
};

struct Sidecar
{
    std::mutex mutex;
    std::vector<SidecarRecord> records;
    std::uint64_t next_seq = 0;
};

/** Leaked so the atexit flush never races static destruction. */
Sidecar &
sidecar()
{
    static Sidecar *s = new Sidecar;
    return *s;
}

const std::string &
sidecarPath()
{
    static const std::string path =
        env::stringOr(env::Var::StatsOut, "");
    return path;
}

bool
sidecarWantsCsv()
{
    const std::string &p = sidecarPath();
    return p.size() >= 4 && p.compare(p.size() - 4, 4, ".csv") == 0;
}

void
flushSidecar()
{
    Sidecar &s = sidecar();
    std::lock_guard<std::mutex> lock(s.mutex);

    // Deterministic order regardless of worker scheduling.
    std::sort(s.records.begin(), s.records.end(),
              [](const SidecarRecord &a, const SidecarRecord &b) {
                  if (a.app != b.app)
                      return a.app < b.app;
                  if (a.config_hash != b.config_hash)
                      return a.config_hash < b.config_hash;
                  return a.seq < b.seq;
              });

    std::ofstream out(sidecarPath(), std::ios::trunc);
    if (!out) {
        warn(detail::concat("DESC_STATS_OUT: cannot write \"",
                            sidecarPath(), "\""));
        return;
    }
    if (sidecarWantsCsv()) {
        out << "run,path,value\n";
        for (const auto &rec : s.records)
            out << rec.csv;
    } else {
        out << "{\n  \"format\": \"desc-stats\",\n  \"version\": 1,\n"
            << "  \"runs\": [";
        for (std::size_t i = 0; i < s.records.size(); i++) {
            out << (i ? ",\n    " : "\n    ");
            out << s.records[i].json;
        }
        out << (s.records.empty() ? "]\n}\n" : "\n  ]\n}\n");
    }
}

} // namespace

bool
statsSidecarEnabled()
{
    return !sidecarPath().empty();
}

void
recordRunStats(const SystemConfig &cfg, const AppRun &run,
               std::uint64_t config_hash, const prof::Profile *profile)
{
    if (!statsSidecarEnabled())
        return;

    StatRegistry reg = buildRunRegistry(cfg, run, config_hash, profile);

    SidecarRecord rec;
    rec.app = cfg.app.name;
    rec.config_hash = config_hash;

    std::ostringstream json;
    writeRegistryJson(json, reg, 2);
    rec.json = json.str();

    char hash_tag[24];
    std::snprintf(hash_tag, sizeof(hash_tag), "%016llx",
                  (unsigned long long)config_hash);
    std::ostringstream csv;
    writeRegistryCsv(csv, reg,
                     rec.app + "/" + shortSchemeName(cfg.l2.scheme) + "#"
                         + hash_tag);
    rec.csv = csv.str();

    Sidecar &s = sidecar();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.next_seq == 0)
        std::atexit(flushSidecar);
    rec.seq = s.next_seq++;
    s.records.push_back(std::move(rec));
}

} // namespace desc::sim
