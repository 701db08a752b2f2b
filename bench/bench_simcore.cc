/**
 * @file
 * bench_simcore: the DES kernel's wall-clock benchmark trajectory.
 *
 * Runs a fixed set of simulator workloads — event queue microkernels,
 * one full training iteration, cluster runs (smoke and large) and a
 * serving smoke run — and writes BENCH_simcore.json. The file is
 * checked in at the repository root and regenerated by CI, which diffs
 * its schema strictly and its *values* with a generous, warning-only
 * tolerance: the numbers are host-dependent and serve as a
 * before/after trajectory when optimizing the kernel, not as a hard
 * regression gate.
 *
 * Methodology (schema v2): each entry is repeated `--reps` times (an
 * optional untimed `--warmup` rep first) and the *minimum* end-to-end
 * wall time across reps is reported. `wall_ms` and `events_per_sec`
 * measure the whole schedule+drain, kernel included — not just time
 * spent inside callbacks — so kernel-side optimizations show up.
 * `cb_wall_ms` preserves the callback-only time for label attribution.
 *
 * Usage: bench_simcore [output.json]   (default: BENCH_simcore.json)
 *        bench_simcore --json path [--append] [--reps N] [--warmup]
 *                      [--label tag]
 *
 * --append appends the snapshot as one compact JSON line instead of
 * overwriting, so repeated runs accumulate a JSON-lines trajectory
 * (one snapshot per optimization step) in a single file.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/mcdla.hh"
#include "core/options.hh"
#include "sim/json.hh"
#include "sim/profiler.hh"

using namespace mcdla;

namespace
{

/** One benchmark entry: min-of-reps wall time plus a profiler. */
struct Entry
{
    std::string name;
    int reps = 1;
    std::uint64_t minWallNs = 0;
    DesProfiler profiler; // from the fastest rep (counters identical)
};

/** Run @p fn reps times (plus optional warmup), keep the fastest. */
template <class Fn>
Entry
runBench(const std::string &name, int reps, bool warmup, Fn &&fn)
{
    Entry e;
    e.name = name;
    e.reps = reps;
    if (warmup) {
        DesProfiler scratch;
        fn(scratch);
    }
    for (int rep = 0; rep < reps; ++rep) {
        DesProfiler profiler;
        const auto t0 = std::chrono::steady_clock::now();
        fn(profiler);
        const auto t1 = std::chrono::steady_clock::now();
        const auto wall_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1
                                                                 - t0)
                .count());
        if (rep == 0 || wall_ns < e.minWallNs) {
            e.minWallNs = wall_ns;
            e.profiler = std::move(profiler);
        }
    }
    return e;
}

/** Schedule-and-drain throughput of the bare kernel. */
void
benchEventQueueDrain(DesProfiler &profiler, int events)
{
    EventQueue eq;
    eq.setProfiler(&profiler);
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < events; ++i)
        eq.schedule(static_cast<Tick>(i),
                    [&sink, i] { sink = sink + static_cast<unsigned>(i); },
                    "drain_tick");
    eq.run();
}

/** Heavy-cancellation pattern: half the scheduled events descheduled. */
void
benchEventQueueCancel(DesProfiler &profiler, int events)
{
    EventQueue eq;
    eq.setProfiler(&profiler);
    volatile std::uint64_t sink = 0;
    std::vector<EventId> ids;
    ids.reserve(static_cast<std::size_t>(events));
    for (int i = 0; i < events; ++i)
        ids.push_back(eq.schedule(
            static_cast<Tick>(i),
            [&sink, i] { sink = sink + static_cast<unsigned>(i); },
            "cancel_tick"));
    for (std::size_t i = 0; i < ids.size(); i += 2)
        eq.deschedule(ids[i]);
    eq.run();
}

/** One full training iteration through the Simulator facade. */
void
benchIteration(DesProfiler &profiler, const char *workload,
               SystemDesign design, int batch)
{
    Scenario sc;
    sc.workload = workload;
    sc.design = design;
    sc.mode = ParallelMode::DataParallel;
    sc.globalBatch = batch;
    Simulator sim;
    Simulator::Hooks hooks;
    hooks.profiler = &profiler;
    sim.run(sc, hooks);
}

/** A seeded cluster run (multi-job contention path). */
void
benchCluster(DesProfiler &profiler, int jobs, double arrival_rate,
             unsigned seed)
{
    ClusterConfig cfg;
    cfg.base.design = SystemDesign::McDlaB;
    cfg.base.seed = seed;
    cfg.profiler = &profiler;
    Random rng(cfg.base.seed);
    std::vector<JobSpec> specs = synthesizeJobs(
        jobs, arrival_rate, cfg.base.base.fabric.numDevices, rng);
    Cluster cluster(cfg, std::move(specs));
    cluster.run();
}

/** A small seeded serving run (request/batching path). */
void
benchServing(DesProfiler &profiler)
{
    ServingConfig cfg;
    cfg.base.design = SystemDesign::McDlaB;
    cfg.base.workload = "AlexNet";
    cfg.base.serve = true;
    cfg.base.replicas = 2;
    cfg.base.globalBatch = 8;
    cfg.base.sloMs = 50.0;
    cfg.base.seed = 5;
    cfg.profiler = &profiler;
    Random rng(cfg.base.seed);
    std::vector<Request> stream =
        synthesizeRequests(20, /*rate=*/200.0, ArrivalKind::Poisson,
                           rng);
    ServingCluster serving(cfg, std::move(stream));
    serving.run();
}

void
writeEntry(std::ostream &os, const Entry &entry)
{
    const DesProfiler &p = entry.profiler;
    const double wall_ms =
        1e-6 * static_cast<double>(entry.minWallNs);
    os << "    {\n      \"name\": ";
    jsonString(os, entry.name);
    os << ",\n      \"reps\": " << entry.reps;
    os << ",\n      \"wall_ms\": ";
    jsonNumber(os, wall_ms);
    os << ",\n      \"cb_wall_ms\": ";
    jsonNumber(os, p.wallSeconds() * 1e3);
    os << ",\n      \"events\": " << p.eventsExecuted();
    os << ",\n      \"events_per_sec\": ";
    jsonNumber(os, entry.minWallNs > 0
                       ? static_cast<double>(p.eventsExecuted())
                             / (1e-9
                                * static_cast<double>(entry.minWallNs))
                       : 0.0);
    os << ",\n      \"schedules\": " << p.schedules();
    os << ",\n      \"deschedules\": " << p.deschedules();
    os << ",\n      \"peak_heap_depth\": " << p.peakHeapDepth();
    os << ",\n      \"top_events\": [";
    const auto top = p.topLabels(5);
    const double total_ns =
        p.wallSeconds() > 0.0 ? p.wallSeconds() * 1e9 : 1.0;
    for (std::size_t i = 0; i < top.size(); ++i) {
        os << (i > 0 ? ", " : "") << "{\"label\": ";
        jsonString(os, top[i].first);
        os << ", \"count\": " << top[i].second.count
           << ", \"wall_pct\": ";
        jsonNumber(os, 100.0 * static_cast<double>(top[i].second.wallNs)
                           / total_ns);
        os << "}";
    }
    os << "]\n    }";
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("bench_simcore",
                      "DES kernel wall-clock benchmark trajectory");
    opts.addString("json", "",
                   "output path (overrides the positional argument; "
                   "default BENCH_simcore.json)");
    opts.addFlag("append",
                 "append the snapshot as one compact JSON line to the "
                 "output (a JSON-lines trajectory) instead of "
                 "overwriting it");
    opts.addInt("reps", 5,
                "timed repetitions per entry; the minimum wall time "
                "is reported (noise-stable trajectory)");
    opts.addFlag("warmup",
                 "run one untimed warmup rep per entry before timing");
    opts.addString("label", "",
                   "free-form tag recorded in the snapshot (names the "
                   "optimization step in the trajectory)");
    if (!opts.parse(argc, argv, std::cerr))
        return 1;

    LogConfig::verbose = false;
    std::string out_path = opts.getString("json");
    if (out_path.empty())
        out_path = opts.positional().empty() ? "BENCH_simcore.json"
                                             : opts.positional()[0];
    const int reps = static_cast<int>(opts.getInt("reps"));
    if (reps < 1)
        fatal("--reps must be >= 1 (got %d)", reps);
    const bool warmup = opts.getFlag("warmup");

    std::vector<Entry> entries;
    entries.push_back(runBench(
        "eq_schedule_drain_1m", reps, warmup,
        [](DesProfiler &p) { benchEventQueueDrain(p, 1'000'000); }));
    entries.push_back(runBench(
        "eq_cancel_half_1m", reps, warmup,
        [](DesProfiler &p) { benchEventQueueCancel(p, 1'000'000); }));
    entries.push_back(runBench(
        "iter_alexnet_mcb_dp_b512", reps, warmup, [](DesProfiler &p) {
            benchIteration(p, "AlexNet", SystemDesign::McDlaB, 512);
        }));
    entries.push_back(runBench(
        "cluster_smoke_4jobs", reps, warmup, [](DesProfiler &p) {
            benchCluster(p, 4, /*arrival_rate=*/50.0, /*seed=*/7);
        }));
    entries.push_back(runBench(
        "cluster_large_16jobs", reps, warmup, [](DesProfiler &p) {
            benchCluster(p, 16, /*arrival_rate=*/25.0, /*seed=*/11);
        }));
    entries.push_back(runBench(
        "serving_smoke_20req", reps, warmup,
        [](DesProfiler &p) { benchServing(p); }));

    std::ostringstream snapshot;
    snapshot << "{\n  \"bench\": \"simcore\",\n  \"schema_version\": 2,\n"
             // The kernel's one priority structure; the key stays so
             // snapshots line up with the history's per-backend lines.
             << "  \"backend\": \"calendar\",\n  \"label\": ";
    jsonString(snapshot, opts.getString("label"));
    snapshot << ",\n  \"units\": {\"wall_ms\": \"host milliseconds, "
             << "end-to-end, min of reps\", "
             << "\"cb_wall_ms\": \"host milliseconds inside callbacks\", "
             << "\"events_per_sec\": \"events per end-to-end host "
             << "second\", "
             << "\"wall_pct\": \"percent of entry callback time\"},\n"
             << "  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        writeEntry(snapshot, entries[i]);
        snapshot << (i + 1 < entries.size() ? ",\n" : "\n");
    }
    snapshot << "  ]\n}\n";

    if (opts.getFlag("append")) {
        // One compact line per snapshot: strip the pretty-printer's
        // newlines and indentation (no emitted string contains a
        // newline, so this cannot corrupt a value).
        std::string line;
        bool skipping = false;
        for (const char c : snapshot.str()) {
            if (c == '\n') {
                skipping = true;
                continue;
            }
            if (skipping && c == ' ')
                continue;
            skipping = false;
            line += c;
        }
        std::ofstream out(out_path, std::ios::app);
        if (!out)
            fatal("cannot open %s for appending", out_path.c_str());
        out << line << '\n';
    } else {
        std::ofstream out(out_path);
        if (!out)
            fatal("cannot open %s for writing", out_path.c_str());
        out << snapshot.str();
    }

    for (const Entry &entry : entries)
        std::cout << entry.name << ": "
                  << entry.profiler.eventsExecuted() << " events, "
                  << TablePrinter::num(
                         1e-6 * static_cast<double>(entry.minWallNs),
                         1)
                  << " ms wall (min of " << entry.reps << ")\n";
    std::cout << "wrote " << out_path << '\n';
    return 0;
}
