#include "common/prof.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <ostream>
#include <vector>

#include "common/contract.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "common/log.hh"

namespace desc::prof {

namespace {

/** Dotted names, index-matched to the Component enum; desc-lint
 *  checks the two stay in sync (dots removed == enum name lowered). */
constexpr const char *kNames[kNumComponents] = {
    "runner",        "energy",        "cpu.inorder", "cpu.ooo",
    "cache.access",  "cache.request", "cache.miss",  "cache.respond",
    "dram",          "link.ticked",   "encoder",
};

/** Scope stack depth limit; deeper entries are counted, not timed. */
constexpr unsigned kMaxDepth = 32;

/** Trace-event slabs: consecutive outermost scopes of one component
 *  closer than this gap merge into one B/E pair, so a hot loop shows
 *  as a continuous band instead of millions of events. */
constexpr std::uint64_t kCoalesceGapNs = 1000;

/** Per-thread trace-event cap (dropped beyond, with a counter). */
constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 18;

/** Event capture toggle; set when DESC_PROF_OUT is live. */
std::atomic<bool> g_capture{false};

std::uint64_t
nowNs()
{
    using namespace std::chrono;
    static const steady_clock::time_point origin = steady_clock::now();
    return std::uint64_t(
        duration_cast<nanoseconds>(steady_clock::now() - origin)
            .count());
}

struct ThreadState
{
    struct Frame
    {
        std::uint8_t comp;
        std::uint64_t start_ns;
        std::uint64_t child_ns;
    };

    /** A coalesced run of outermost scopes of one component. */
    struct Slab
    {
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
        std::uint64_t scopes = 0; //!< 0 means "no open slab"
    };

    struct EventRec
    {
        std::uint64_t start_ns;
        std::uint64_t end_ns;
        std::uint64_t scopes;
        std::uint8_t comp;
    };

    // Accumulators are written only by the owning thread. Readers
    // (mergedProfile, the exit-time JSON flush) must order their read
    // after the writer's scope exits: join the thread, or go through
    // the runner's batch-completion lock.
    ComponentTotals totals[kNumComponents];
    Frame stack[kMaxDepth];
    unsigned depth = 0;
    std::uint64_t overflow_depth = 0;
    unsigned comp_nest[kNumComponents] = {};
    Slab slab[kNumComponents];
    std::vector<EventRec> events;
    std::uint64_t dropped = 0;
    std::string name;
    unsigned index = 0;
};

struct Registry
{
    std::mutex mutex;
    std::vector<ThreadState *> threads;
};

/** Leaked so the atexit flush never races static destruction. */
Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

ThreadState &
threadState()
{
    // Leaked: a worker's accumulated profile must survive until the
    // exit-time flush, which may run after the thread is gone.
    thread_local ThreadState *ts = [] {
        auto *s = new ThreadState;
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        s->index = unsigned(r.threads.size());
        const std::string &ctx = threadLogContext();
        s->name = ctx.empty() ? "t" + std::to_string(s->index) : ctx;
        r.threads.push_back(s);
        return s;
    }();
    return *ts;
}

void
flushSlab(ThreadState &ts, unsigned comp)
{
    ThreadState::Slab &sl = ts.slab[comp];
    if (sl.scopes == 0)
        return;
    if (ts.events.size() >= kMaxEventsPerThread) {
        ts.dropped += sl.scopes;
    } else {
        ts.events.push_back(ThreadState::EventRec{
            sl.start_ns, sl.end_ns, sl.scopes, std::uint8_t(comp)});
    }
    sl.scopes = 0;
}

void
recordSpan(ThreadState &ts, unsigned comp, std::uint64_t start_ns,
           std::uint64_t end_ns)
{
    ThreadState::Slab &sl = ts.slab[comp];
    if (sl.scopes != 0 && start_ns - sl.end_ns <= kCoalesceGapNs) {
        sl.end_ns = end_ns;
        sl.scopes++;
        return;
    }
    flushSlab(ts, comp);
    sl.start_ns = start_ns;
    sl.end_ns = end_ns;
    sl.scopes = 1;
}

struct RunRecord
{
    std::string label;
    std::uint64_t seq;
    Profile profile;
};

struct RunLog
{
    std::mutex mutex;
    std::vector<RunRecord> runs;
    bool has_last = false;
    std::string last_label;
    Profile last;
};

RunLog &
runLog()
{
    static RunLog *log = new RunLog;
    return *log;
}

// --- JSON helpers -------------------------------------------------

void
writeTotals(std::ostream &os, const ComponentTotals &t)
{
    os << "{\"scopes\": " << t.count << ", \"self_ns\": " << t.self_ns
       << ", \"total_ns\": " << t.total_ns << ", \"cycles\": "
       << t.cycles << "}";
}

void
writeComponentMap(std::ostream &os, const Profile &p, const char *indent)
{
    os << "{";
    bool first = true;
    for (unsigned c = 0; c < kNumComponents; c++) {
        if (p.comp[c].count == 0 && p.comp[c].cycles == 0)
            continue;
        os << (first ? "\n" : ",\n") << indent;
        first = false;
        writeJsonString(os, kNames[c]);
        os << ": ";
        writeTotals(os, p.comp[c]);
    }
    os << (first ? "}" : "\n") ;
    if (!first) {
        // Closing brace one level out from the entries.
        std::string outdent(indent);
        if (outdent.size() >= 2)
            outdent.resize(outdent.size() - 2);
        os << outdent << "}";
    }
}

void
flushAtExit()
{
    std::ofstream out(outputPath(), std::ios::trunc);
    if (!out) {
        warn(desc::detail::concat("DESC_PROF_OUT: cannot write \"",
                                  outputPath(), "\""));
        return;
    }
    writeTraceJson(out);
}

} // namespace

namespace detail {

std::atomic<bool> live = [] {
    bool on = parseProfSpec(env::raw(env::Var::Prof));
    if (outputEnabled()) {
        on = true; // DESC_PROF_OUT implies profiling
        g_capture.store(true, std::memory_order_relaxed);
        std::atexit(flushAtExit);
    }
    return on;
}();

void
enterScope(unsigned comp)
{
    ThreadState &ts = threadState();
    if (ts.depth >= kMaxDepth) {
        // Too deep to time; still counted so totals stay honest.
        ts.totals[comp].count++;
        ts.overflow_depth++;
        return;
    }
    ts.stack[ts.depth++] =
        ThreadState::Frame{std::uint8_t(comp), nowNs(), 0};
    ts.comp_nest[comp]++;
}

void
exitScope()
{
    ThreadState &ts = threadState();
    if (ts.overflow_depth > 0) {
        ts.overflow_depth--;
        return;
    }
    DESC_DCHECK(ts.depth > 0, "profiler scope exit without entry");
    const ThreadState::Frame f = ts.stack[--ts.depth];
    const std::uint64_t end = nowNs();
    const std::uint64_t dur = end - f.start_ns;

    ComponentTotals &t = ts.totals[f.comp];
    t.count++;
    t.total_ns += dur;
    t.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
    if (ts.depth > 0)
        ts.stack[ts.depth - 1].child_ns += dur;

    // Trace events record only the outermost instance of a component
    // (recursion folds into it), so every (thread, component) track
    // is a sequence of disjoint, time-ordered intervals.
    unsigned nest = --ts.comp_nest[f.comp];
    if (nest == 0 && g_capture.load(std::memory_order_relaxed))
        recordSpan(ts, f.comp, f.start_ns, end);
}

void
addCycles(unsigned comp, std::uint64_t cycles)
{
    threadState().totals[comp].cycles += cycles;
}

} // namespace detail

const char *
componentName(Component c)
{
    DESC_ASSERT(unsigned(c) < kNumComponents, "bad profiler component");
    return kNames[unsigned(c)];
}

std::uint64_t
Profile::scopes() const
{
    std::uint64_t n = 0;
    for (const auto &t : comp)
        n += t.count;
    return n;
}

std::uint64_t
Profile::selfNs() const
{
    std::uint64_t n = 0;
    for (const auto &t : comp)
        n += t.self_ns;
    return n;
}

void
Profile::add(const Profile &other)
{
    for (unsigned c = 0; c < kNumComponents; c++) {
        comp[c].count += other.comp[c].count;
        comp[c].self_ns += other.comp[c].self_ns;
        comp[c].total_ns += other.comp[c].total_ns;
        comp[c].cycles += other.comp[c].cycles;
    }
}

Profile
Profile::minus(const Profile &base) const
{
    Profile d;
    for (unsigned c = 0; c < kNumComponents; c++) {
        d.comp[c].count = comp[c].count - base.comp[c].count;
        d.comp[c].self_ns = comp[c].self_ns - base.comp[c].self_ns;
        d.comp[c].total_ns = comp[c].total_ns - base.comp[c].total_ns;
        d.comp[c].cycles = comp[c].cycles - base.comp[c].cycles;
    }
    return d;
}

void
setEnabled(bool on)
{
    detail::live.store(on, std::memory_order_relaxed);
}

bool
parseProfSpec(const char *spec)
{
    return env::parseBool(env::Var::Prof, spec, false,
                          "; profiling stays off");
}

Profile
threadProfile()
{
    ThreadState &ts = threadState();
    Profile p;
    for (unsigned c = 0; c < kNumComponents; c++)
        p.comp[c] = ts.totals[c];
    return p;
}

Profile
deltaSince(const Profile &base)
{
    return threadProfile().minus(base);
}

Profile
mergedProfile()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    Profile p;
    for (const ThreadState *ts : r.threads) {
        Profile t;
        for (unsigned c = 0; c < kNumComponents; c++)
            t.comp[c] = ts->totals[c];
        p.add(t);
    }
    return p;
}

void
noteRunProfile(const std::string &run_label, const Profile &p)
{
    RunLog &log = runLog();
    std::lock_guard<std::mutex> lock(log.mutex);
    log.runs.push_back(
        RunRecord{run_label, std::uint64_t(log.runs.size()), p});
    log.has_last = true;
    log.last_label = run_label;
    log.last = p;
}

bool
lastRunProfile(Profile *out, std::string *label)
{
    RunLog &log = runLog();
    std::lock_guard<std::mutex> lock(log.mutex);
    if (!log.has_last)
        return false;
    if (out)
        *out = log.last;
    if (label)
        *label = log.last_label;
    return true;
}

const std::string &
outputPath()
{
    static const std::string path =
        env::stringOr(env::Var::ProfOut, "");
    return path;
}

bool
outputEnabled()
{
    return !outputPath().empty();
}

void
setCaptureForTest(bool on)
{
    g_capture.store(on, std::memory_order_relaxed);
}

void
resetForTest()
{
    Registry &r = registry();
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        for (ThreadState *ts : r.threads) {
            for (unsigned c = 0; c < kNumComponents; c++) {
                ts->totals[c] = ComponentTotals{};
                ts->slab[c] = ThreadState::Slab{};
            }
            ts->events.clear();
            ts->dropped = 0;
        }
    }
    RunLog &log = runLog();
    std::lock_guard<std::mutex> lock(log.mutex);
    log.runs.clear();
    log.has_last = false;
    log.last_label.clear();
    log.last = Profile{};
}

void
writeTraceJson(std::ostream &os)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);

    struct Out
    {
        std::uint64_t ns;
        bool begin;
        unsigned tid;
        std::uint8_t comp;
        std::uint64_t scopes;
    };

    std::vector<Out> outs;
    std::uint64_t dropped = 0;
    for (ThreadState *ts : r.threads) {
        for (unsigned c = 0; c < kNumComponents; c++)
            flushSlab(*ts, c);
        dropped += ts->dropped;
        for (const auto &e : ts->events) {
            unsigned tid = ts->index * kNumComponents + e.comp + 1;
            outs.push_back(Out{e.start_ns, true, tid, e.comp, e.scopes});
            outs.push_back(Out{e.end_ns, false, tid, e.comp, 0});
        }
    }
    // Globally non-decreasing ts; stable keeps per-track B/E order
    // (within a track the raw spans are already disjoint and sorted).
    std::stable_sort(outs.begin(), outs.end(),
                     [](const Out &a, const Out &b) { return a.ns < b.ns; });

    os << "{\n  \"format\": \"desc-prof\",\n  \"version\": 1,\n"
       << "  \"dropped_events\": " << dropped << ",\n"
       << "  \"traceEvents\": [";

    bool first = true;
    auto sep = [&] {
        os << (first ? "\n    " : ",\n    ");
        first = false;
    };

    sep();
    os << "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
          "\"args\": {\"name\": \"desc-sim\"}}";
    for (const ThreadState *ts : r.threads) {
        // One named track per component this thread actually entered.
        bool used[kNumComponents] = {};
        for (const auto &e : ts->events)
            used[e.comp] = true;
        for (unsigned c = 0; c < kNumComponents; c++) {
            if (!used[c])
                continue;
            sep();
            os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": "
               << ts->index * kNumComponents + c + 1
               << ", \"name\": \"thread_name\", \"args\": {\"name\": ";
            writeJsonString(os, ts->name + "/" + kNames[c]);
            os << "}}";
        }
    }
    for (const Out &o : outs) {
        sep();
        char ts_us[32];
        std::snprintf(ts_us, sizeof(ts_us), "%llu.%03u",
                      (unsigned long long)(o.ns / 1000),
                      unsigned(o.ns % 1000));
        os << "{\"ph\": \"" << (o.begin ? 'B' : 'E')
           << "\", \"pid\": 1, \"tid\": " << o.tid << ", \"ts\": "
           << ts_us;
        if (o.begin) {
            os << ", \"name\": ";
            writeJsonString(os, kNames[o.comp]);
            os << ", \"args\": {\"scopes\": " << o.scopes << "}";
        }
        os << "}";
    }
    os << "\n  ],\n";

    // Aggregate profile: merged, per thread, and per recorded run.
    Profile merged;
    for (const ThreadState *ts : r.threads) {
        Profile t;
        for (unsigned c = 0; c < kNumComponents; c++)
            t.comp[c] = ts->totals[c];
        merged.add(t);
    }
    os << "  \"profile\": {\n    \"components\": ";
    writeComponentMap(os, merged, "      ");
    os << ",\n    \"threads\": [";
    for (std::size_t i = 0; i < r.threads.size(); i++) {
        const ThreadState *ts = r.threads[i];
        Profile t;
        for (unsigned c = 0; c < kNumComponents; c++)
            t.comp[c] = ts->totals[c];
        os << (i ? ",\n      " : "\n      ") << "{\"name\": ";
        writeJsonString(os, ts->name);
        os << ", \"components\": ";
        writeComponentMap(os, t, "        ");
        os << "}";
    }
    os << (r.threads.empty() ? "],\n" : "\n    ],\n");

    RunLog &log = runLog();
    std::lock_guard<std::mutex> log_lock(log.mutex);
    std::vector<const RunRecord *> runs;
    runs.reserve(log.runs.size());
    for (const auto &rec : log.runs)
        runs.push_back(&rec);
    std::sort(runs.begin(), runs.end(),
              [](const RunRecord *a, const RunRecord *b) {
                  return a->label != b->label ? a->label < b->label
                                              : a->seq < b->seq;
              });
    os << "    \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); i++) {
        os << (i ? ",\n      " : "\n      ") << "{\"run\": ";
        writeJsonString(os, runs[i]->label);
        os << ", \"components\": ";
        writeComponentMap(os, runs[i]->profile, "        ");
        os << "}";
    }
    os << (runs.empty() ? "]\n" : "\n    ]\n");
    os << "  }\n}\n";
}

} // namespace desc::prof
