/**
 * @file
 * The repository benchmark: three seeded workloads driven through the
 * public facades (SweepRunner / Simulator::run, Cluster::run,
 * ServingCluster::run), with host-time end-to-end metrics, simulated
 * outputs verified against expected values stored beside this file,
 * and a traced mode that splits host time by layer from outside the
 * library. perfbench/README.md documents every metric; run.py builds
 * this binary and forwards its arguments:
 *
 *   perfbench --workload train_grid --seed 1 --seconds 30 --trace 0 \
 *       --expected-dir perfbench/expected
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and metrics (end-to-end metrics with --trace 0, per-layer with 1).
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "core/simulator.hh"
#include "interconnect/channel.hh"
#include "serving/serving.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "system/system.hh"
#include "workloads/benchmarks.hh"

// ------------------------------------------------------------------
// Heap-allocation counter (alloc.* metrics). Replacing the global
// operators here confines the count to this binary; the library is
// untouched. Counting is off except inside an AllocCount scope, so the
// untimed cost is one relaxed load per allocation.

namespace
{

std::atomic<bool> g_countAllocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t bytes)
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(bytes == 0 ? 1 : bytes);
}

void *
countedAlignedAlloc(std::size_t bytes, std::align_val_t align)
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    return std::aligned_alloc(a, (std::max<std::size_t>(bytes, 1) + a - 1)
                                     / a * a);
}

} // namespace

void *
operator new(std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes)
{
    return operator new(bytes);
}

void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    if (void *p = countedAlignedAlloc(bytes, align))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes, std::align_val_t align)
{
    return operator new(bytes, align);
}

// noinline: once inlined, GCC pairs the free() with the new-expression
// and reports a false -Wmismatched-new-delete.

__attribute__((noinline)) void
operator delete(void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace mcdla;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Counts heap allocations made while in scope. */
class AllocCount
{
  public:
    AllocCount() : _start(g_allocs.load())
    {
        g_countAllocs.store(true);
    }
    ~AllocCount() { g_countAllocs.store(false); }
    AllocCount(const AllocCount &) = delete;
    AllocCount &operator=(const AllocCount &) = delete;

    double count() const
    {
        return static_cast<double>(g_allocs.load() - _start);
    }

  private:
    std::uint64_t _start;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------------
// Host-speed calibration. Host speed on the VMs this benchmark runs on
// drifts by up to +-25% over tens of seconds, for CPU-bound code too,
// and shifts between runs a minute apart. A fixed kernel runs before
// and after every pass, and the end-to-end times are reported at a
// reference host speed: each time is divided by its pass's kernel time
// and multiplied by kReferenceCalibrationSec. The kernel mixes what the
// simulator's hot path does (heap operations, indirect calls, string-
// keyed hash lookups, small allocations) over a few MB, and uses
// nothing from the library, so a library change cannot move it.

/** Kernel time on the reference host (4-core Xeon VM, g++ 12.2). */
constexpr double kReferenceCalibrationSec = 0.1;

std::uint64_t g_calibrationSink = 0;

double
calibrationSec()
{
    using Entry = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::unordered_map<std::string, double> stats;
    std::vector<std::string> keys;
    for (int i = 0; i < 2048; ++i)
        keys.push_back("fabric.ring" + std::to_string(i % 4) + ".seg"
                       + std::to_string(i) + ".bytes");
    std::vector<std::function<std::uint64_t(std::uint64_t)>> fns;
    for (std::uint64_t i = 0; i < 16; ++i)
        fns.emplace_back(
            [i](std::uint64_t x) { return x * (2 * i + 1) + (x >> (i % 7)); });
    std::vector<std::unique_ptr<std::uint64_t[]>> live(1024);
    std::uint64_t state = 0x9E3779B97F4A7C15ULL;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };

    const auto start = Clock::now();
    for (std::uint32_t i = 0; i < 4096; ++i)
        heap.push({next() % 1000000, i});
    std::uint64_t acc = 0;
    for (int n = 0; n < 400000; ++n) {
        const Entry top = heap.top();
        heap.pop();
        acc += fns[top.second % fns.size()](top.first);
        stats[keys[top.second % keys.size()]] += 1.0;
        auto &slot = live[next() % live.size()];
        slot = std::make_unique<std::uint64_t[]>(1 + acc % 24);
        slot[0] = acc;
        heap.push({top.first + 1 + acc % 5000, top.second});
    }
    g_calibrationSink += acc + stats.size();
    return secondsSince(start);
}

// ------------------------------------------------------------------
// Label -> layer classifier for the traced run. Every event label the
// library can emit must map to a layer; an unmatched label is reported
// through trace.unattributed_frac and fails the traced run, so a label
// added later cannot silently fall out of the split.

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size()
        && s.compare(s.size() - suffix.size(), suffix.size(), suffix)
        == 0;
}

/** The layer of an event label, or "" when no class claims it. */
std::string
classifyLabel(const std::string &label)
{
    // Channel chunk events: "<channel>.xfer_done" / "<channel>.deliver".
    if (endsWith(label, ".xfer_done") || endsWith(label, ".deliver"))
        return "interconnect";
    if (label == "op_complete")
        return "system";
    if (endsWith(label, ".empty_dma") || endsWith(label, ".zero_fraction_dma"))
        return "vmem";
    if (endsWith(label, ".noop"))
        return "collective";
    if (label == "job_arrival" || label == "job_cleanup")
        return "cluster";
    if (label == "request_arrival" || label == "batch_timeout"
        || label == "batch_cleanup")
        return "serving";
    return "";
}

// ------------------------------------------------------------------
// Simulated outputs and their verification.

/** One op's simulated outputs (exact; compared bit for bit). */
struct Op
{
    std::string name;
    std::vector<double> values;
    /** The op completed and its outputs are self-consistent. */
    bool sane = true;
};

std::string
formatValue(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * 32-bit FNV-1a over the exact bit patterns of @p values. serve_burst
 * stores one digest per request instead of two 17-digit times, which
 * keeps its 8000-op expected files near 150 KB.
 */
double
digest(std::initializer_list<double> values)
{
    std::uint32_t hash = 2166136261u;
    for (double v : values) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int shift = 0; shift < 64; shift += 8) {
            hash ^= static_cast<std::uint32_t>((bits >> shift) & 0xffu);
            hash *= 16777619u;
        }
    }
    return static_cast<double>(hash);
}

using Expected = std::map<std::string, std::vector<double>>;

/** Read `name v1 v2 ...` lines ('#' comments); false if absent. */
bool
loadExpected(const std::string &path, Expected &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name;
        fields >> name;
        std::vector<double> values;
        std::string token;
        while (fields >> token)
            values.push_back(std::strtod(token.c_str(), nullptr));
        out[name] = values;
    }
    return true;
}

void
writeExpected(const std::string &path, const std::string &header,
              const std::vector<Op> &ops)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write %s", path.c_str());
    out << "# " << header << "\n";
    for (const Op &op : ops) {
        out << op.name;
        for (double v : op.values)
            out << ' ' << formatValue(v);
        out << '\n';
    }
}

bool
sameOutputs(const Op &op, const std::vector<double> &values)
{
    if (op.values.size() != values.size())
        return false;
    for (std::size_t i = 0; i < values.size(); ++i)
        if (op.values[i] != values[i])
            return false;
    return true;
}

/**
 * Verdict per op: sane in every pass, identical across every pass of
 * the run, and (when stored values exist) equal to them. A missing or
 * extra op counts as failed.
 */
class Verifier
{
  public:
    void
    addPass(const std::vector<Op> &ops)
    {
        if (_passes == 0) {
            _first = ops;
            for (const Op &op : ops)
                _good.push_back(op.sane);
        } else if (ops.size() != _first.size()) {
            std::fill(_good.begin(), _good.end(), false);
        } else {
            for (std::size_t i = 0; i < ops.size(); ++i)
                if (!ops[i].sane || ops[i].name != _first[i].name
                    || !sameOutputs(ops[i], _first[i].values))
                    _good[i] = false;
        }
        ++_passes;
    }

    /** Compare the first pass against stored values. */
    void
    compare(const Expected &expected, const std::string &what)
    {
        std::set<std::string> seen;
        int reported = 0;
        for (std::size_t i = 0; i < _first.size(); ++i) {
            seen.insert(_first[i].name);
            auto it = expected.find(_first[i].name);
            if (it == expected.end() || !sameOutputs(_first[i], it->second)) {
                _good[i] = false;
                if (reported++ < 5)
                    std::cerr << "perfbench: " << what << ": op "
                              << _first[i].name
                              << " differs from its stored value\n";
            }
        }
        for (const auto &[name, values] : expected)
            if (seen.count(name) == 0)
                ++_missing;
    }

    std::uint64_t
    attempted() const
    {
        return _good.size() + _missing;
    }

    std::uint64_t
    verified() const
    {
        return static_cast<std::uint64_t>(
            std::count(_good.begin(), _good.end(), true));
    }

  private:
    std::vector<Op> _first;
    std::vector<bool> _good;
    std::uint64_t _missing = 0;
    int _passes = 0;
};

// ------------------------------------------------------------------
// Per-layer sample of one traced pass.

struct LayerSample
{
    DesProfiler profiler;
    /** Host time inside the facade run calls. */
    double runCallSec = 0.0;
    /** Standalone System builds matching the pass's Systems. */
    double systemBuildSec = 0.0;
    /** Whether the run calls build those Systems themselves. */
    bool buildsInRun = false;
    double reportSec = 0.0;
    double allocRun = 0.0;

    // Simulated counts, from System stats after each run.
    double chanTransfers = 0.0;
    double chanBytes = 0.0;
    double chanBusySec = 0.0;
    double chanSpanSec = 0.0; ///< Channels x simulated makespan.
    double collectiveOps = 0.0;
    double collectiveBytes = 0.0;
    double dmaTransfers = 0.0;
    double dmaBytes = 0.0;
    double computeBusySec = 0.0;
    double computeSpanSec = 0.0; ///< Devices x simulated makespan.
    PagingCounters paging;

    // Workload-specific simulated outcomes.
    double meanQueueSec = 0.0;
    double poolAllocFailures = 0.0;
    double batches = 0.0;
    double meanBatch = 0.0;
    double p99Ms = 0.0;
    double shed = 0.0;

    void
    addSystem(System &system)
    {
        const double makespan = ticksToSeconds(system.eventQueue().now());
        for (Channel *ch : system.fabric().channels()) {
            chanTransfers += ch->stats().value("transfers");
            chanBytes += ch->stats().value("bytes");
            chanBusySec += ticksToSeconds(ch->busyTicks());
            chanSpanSec += makespan;
        }
        collectiveOps += system.collectives().stats().value("ops");
        collectiveBytes += system.collectives().stats().value("bytes");
        for (int d = 0; d < system.numDevices(); ++d) {
            const StatSet &dma = system.dma(d).stats();
            dmaTransfers += dma.value("transfers");
            dmaBytes += dma.value("bytes_offloaded")
                + dma.value("bytes_prefetched");
        }
    }

    /** Device compute-busy counters (valid after Simulator::run). */
    void
    addDeviceCompute(System &system)
    {
        const double makespan = ticksToSeconds(system.eventQueue().now());
        for (int d = 0; d < system.numDevices(); ++d) {
            computeBusySec += ticksToSeconds(static_cast<Tick>(
                system.device(d).stats().value("compute_busy_ticks")));
            computeSpanSec += makespan;
        }
    }

    void
    addPaging(const PagingCounters &c)
    {
        paging.demandHits += c.demandHits;
        paging.demandMisses += c.demandMisses;
        paging.stallSec += c.stallSec;
    }
};

double
timeSystemBuild(const Scenario &scenario)
{
    const auto start = Clock::now();
    EventQueue eq(scenario.base.eventQueueBackend);
    System system(eq, scenario.config());
    return secondsSince(start);
}

/** Host-time split of one set-up (the set-up of one pass). */
struct SetupSplit
{
    double dnnSec = 0.0;
    double synthSec = 0.0;
};

/** Write @p table as CSV and JSON, in memory. */
void
serialize(const ResultSet &table)
{
    std::ostringstream csv;
    std::ostringstream json;
    table.writeCsv(csv);
    table.writeJson(json);
}

// ------------------------------------------------------------------
// Workloads. Each builds its inputs from the seed in setup() (the
// timed set-up), runs them in run() (the timed phase: event loops plus
// result rows), and turns the outputs into ops for verification.

class Workload
{
  public:
    virtual ~Workload() = default;
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Drop the facades of the last set-up (kept out of the timing). */
    virtual void release() = 0;

    /** Build the inputs and facades for @p seed. */
    virtual void setup(std::uint64_t seed, DesProfiler *profiler,
                       SetupSplit &split) = 0;

    /** Timed phase; fills @p layers when traced. */
    virtual void run(LayerSample *layers) = 0;

    /** The last run's simulated outputs. */
    virtual std::vector<Op> ops() const = 0;

    /** One line per generated input (stream tests). */
    virtual std::vector<std::string> inputs() const = 0;

    /** Whether stored outputs depend on the seed. */
    virtual bool seeded() const { return true; }

    /** Field names of an op's values (expected-file header). */
    virtual const char *fields() const = 0;
};

/**
 * train_grid: the fig13 reproduction path. SweepRunner (one worker
 * thread) over the paper's workloads x {dc, mc-b} x {dp, mp} at batch
 * 512. VGG-E is trimmed: its mp scenarios alone take ~4 s, more than
 * the rest of the grid together. The seed permutes the scenario order
 * (each scenario owns its System, so outputs do not depend on it).
 */
class TrainGrid : public Workload
{
  public:
    void release() override { _runner.reset(); }

    void
    setup(std::uint64_t seed, DesProfiler *, SetupSplit &split) override
    {
        auto start = Clock::now();
        _scenarios.clear();
        for (const std::string &w : workloads())
            for (SystemDesign d : {SystemDesign::DcDla, SystemDesign::McDlaB})
                for (ParallelMode m : {ParallelMode::DataParallel,
                                       ParallelMode::ModelParallel}) {
                    Scenario sc;
                    sc.workload = w;
                    sc.design = d;
                    sc.mode = m;
                    sc.globalBatch = 512;
                    _scenarios.push_back(sc);
                }
        Random rng(seed);
        for (std::size_t i = _scenarios.size(); i > 1; --i)
            std::swap(_scenarios[i - 1], _scenarios[rng.below(i)]);
        split.synthSec = secondsSince(start);

        start = Clock::now();
        _runner = std::make_unique<SweepRunner>(SweepConfig{1, false});
        for (const std::string &w : workloads())
            _runner->simulator().network(w);
        split.dnnSec = secondsSince(start);
    }

    void
    run(LayerSample *layers) override
    {
        if (layers == nullptr) {
            _results = _runner->run(_scenarios);
        } else {
            _results.assign(_scenarios.size(), IterationResult{});
            Simulator::Hooks hooks;
            hooks.profiler = &layers->profiler;
            hooks.postRun = [layers](System &system,
                                     const IterationResult &result) {
                layers->addSystem(system);
                layers->addDeviceCompute(system);
                layers->addPaging(result.paging);
            };
            layers->buildsInRun = true;
            for (std::size_t i = 0; i < _scenarios.size(); ++i) {
                layers->systemBuildSec += timeSystemBuild(_scenarios[i]);
                const auto start = Clock::now();
                _results[i] = _runner->simulator().run(_scenarios[i], hooks);
                layers->runCallSec += secondsSince(start);
            }
        }
        const auto start = Clock::now();
        ResultSet table(SweepRunner::resultColumns());
        for (std::size_t i = 0; i < _scenarios.size(); ++i)
            table.addRow(SweepRunner::resultRow(_scenarios[i], _results[i]));
        serialize(table);
        if (layers != nullptr)
            layers->reportSec = secondsSince(start);
    }

    std::vector<Op>
    ops() const override
    {
        std::vector<Op> out;
        for (std::size_t i = 0; i < _scenarios.size(); ++i) {
            const Scenario &sc = _scenarios[i];
            const IterationResult &r = _results[i];
            Op op;
            op.name = sc.workload + "/" + systemDesignToken(sc.design) + "/"
                + parallelModeToken(sc.mode);
            op.values = {static_cast<double>(r.makespan),
                         r.breakdown.computeSec, r.breakdown.syncSec,
                         r.breakdown.vmemSec};
            op.sane = r.makespan > 0;
            out.push_back(op);
        }
        return out;
    }

    std::vector<std::string>
    inputs() const override
    {
        std::vector<std::string> lines;
        for (const Scenario &sc : _scenarios)
            lines.push_back(sc.label());
        return lines;
    }

    bool seeded() const override { return false; }

    const char *
    fields() const override
    {
        return "makespan_ticks compute_s sync_s vmem_s";
    }

    static std::vector<std::string>
    workloads()
    {
        std::vector<std::string> names = benchmarkNames();
        names.erase(std::remove(names.begin(), names.end(), "VGG-E"),
                    names.end());
        return names;
    }

  private:
    std::vector<Scenario> _scenarios;
    std::unique_ptr<SweepRunner> _runner;
    std::vector<IterationResult> _results;
};

/**
 * cluster_contend: 32 jobs at 100 jobs/s on an 8-device mc-b machine,
 * backfill scheduler, buddy allocator. The job bodies are one fixed
 * synthesizeJobs() draw; the seed draws the arrival times and the
 * order in which those jobs arrive. Drawing the bodies from the seed
 * too would swing the simulated work by +-30% from seed to seed
 * (5.5M-10.6M events over seeds 1-8), which wall_s would read as host
 * noise.
 */
class ClusterContend : public Workload
{
  public:
    static constexpr int kJobs = 32;
    static constexpr double kRate = 100.0;
    static constexpr std::uint64_t kMixSeed = 3;

    void release() override { _cluster.reset(); }

    void
    setup(std::uint64_t seed, DesProfiler *profiler,
          SetupSplit &split) override
    {
        ClusterConfig cfg;
        cfg.base.design = SystemDesign::McDlaB;
        cfg.base.seed = seed;
        cfg.scheduler = SchedulerKind::Backfill;
        cfg.allocator = PoolAllocatorKind::Buddy;
        cfg.profiler = profiler;
        const int devices = cfg.base.base.fabric.numDevices;

        auto start = Clock::now();
        Random mix_rng(kMixSeed);
        std::vector<JobSpec> jobs =
            synthesizeJobs(kJobs, kRate, devices, mix_rng);
        Random rng(seed);
        const std::vector<JobSpec> arrivals =
            synthesizeJobs(kJobs, kRate, devices, rng);
        for (std::size_t i = jobs.size(); i > 1; --i)
            std::swap(jobs[i - 1], jobs[rng.below(i)]);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            jobs[i].arrivalSec = arrivals[i].arrivalSec;
        split.synthSec = secondsSince(start);

        start = Clock::now();
        Simulator networks;
        for (const JobSpec &job : jobs)
            networks.network(job.workload);
        split.dnnSec = secondsSince(start);

        _jobs = jobs;
        _cluster = std::make_unique<Cluster>(cfg, std::move(jobs));
    }

    void
    run(LayerSample *layers) override
    {
        const auto run_start = Clock::now();
        _report = _cluster->run();
        if (layers != nullptr) {
            layers->runCallSec = secondsSince(run_start);
            Scenario machine;
            machine.design = SystemDesign::McDlaB;
            layers->systemBuildSec = timeSystemBuild(machine);
            // The async session API resets device counters at every
            // iteration start, so compute busy time comes from the
            // per-job iteration breakdowns instead.
            System &system = _cluster->system();
            layers->addSystem(system);
            for (const JobOutcome &job : _report.jobs) {
                layers->addPaging(job.lastIteration.paging);
                layers->computeBusySec += job.lastIteration.breakdown.computeSec
                    * job.spec.iterations
                    * static_cast<double>(job.devices.size());
            }
            layers->computeSpanSec =
                system.numDevices() * _report.makespanSec;
            layers->meanQueueSec = _report.meanQueueSec();
            layers->poolAllocFailures =
                static_cast<double>(_report.allocationFailures);
        }
        const auto start = Clock::now();
        serialize(_report.jobTable());
        serialize(_report.poolTable());
        if (layers != nullptr)
            layers->reportSec = secondsSince(start);
    }

    std::vector<Op>
    ops() const override
    {
        std::vector<Op> out;
        for (const JobOutcome &job : _report.jobs) {
            Op op;
            op.name = job.spec.name;
            op.values = {job.startSec, job.finishSec};
            op.sane = job.completed && !job.rejected
                && job.finishSec > job.startSec
                && job.startSec >= job.arrivalSec - 1e-9;
            out.push_back(op);
        }
        return out;
    }

    std::vector<std::string>
    inputs() const override
    {
        std::vector<std::string> lines;
        for (const JobSpec &job : _jobs)
            lines.push_back(jobSpecLine(job));
        return lines;
    }

    const char *fields() const override { return "start_s finish_s"; }

  private:
    std::vector<JobSpec> _jobs;
    std::unique_ptr<Cluster> _cluster;
    ClusterReport _report;
};

/**
 * serve_burst: 8000 bursty requests at 3000 req/s to 4 ResNet
 * replicas on mc-b, continuous batching, SLO-aware router. The seed
 * draws the request stream.
 */
class ServeBurst : public Workload
{
  public:
    static constexpr int kRequests = 8000;
    static constexpr double kRate = 3000.0;

    void release() override { _serving.reset(); }

    void
    setup(std::uint64_t seed, DesProfiler *profiler,
          SetupSplit &split) override
    {
        ServingConfig cfg;
        cfg.base.design = SystemDesign::McDlaB;
        cfg.base.workload = "ResNet";
        cfg.base.serve = true;
        cfg.base.replicas = 4;
        cfg.base.requests = kRequests;
        cfg.base.requestRate = kRate;
        cfg.base.arrivals = ArrivalKind::Bursty;
        cfg.base.batchPolicy = BatchPolicyKind::Continuous;
        cfg.base.router = RouterKind::SloAware;
        cfg.base.seed = seed;
        cfg.profiler = profiler;

        auto start = Clock::now();
        Random rng(seed);
        std::vector<Request> stream =
            synthesizeRequests(kRequests, kRate, ArrivalKind::Bursty, rng);
        split.synthSec = secondsSince(start);

        start = Clock::now();
        Simulator networks;
        networks.network(cfg.base.workload);
        split.dnnSec = secondsSince(start);

        _stream = stream;
        _serving = std::make_unique<ServingCluster>(cfg, std::move(stream));
    }

    void
    run(LayerSample *layers) override
    {
        const auto run_start = Clock::now();
        _report = _serving->run();
        if (layers != nullptr) {
            layers->runCallSec = secondsSince(run_start);
            Scenario machine;
            machine.design = SystemDesign::McDlaB;
            layers->systemBuildSec = timeSystemBuild(machine);
            layers->addSystem(_serving->system());
            // Compute busy time per batch, from the requests it carried
            // (a batch is one replica's dispatch instant).
            std::set<std::pair<int, double>> batches_seen;
            for (const RequestOutcome &r : _report.requests)
                if (batches_seen.insert({r.replica, r.dispatchSec}).second)
                    layers->computeBusySec += r.computeSec;
            layers->computeSpanSec =
                static_cast<double>(_report.replicas.size())
                * _report.makespanSec;
            double batches = 0.0;
            for (const ReplicaStats &r : _report.replicas)
                batches += r.batches;
            layers->batches = batches;
            layers->meanBatch = _report.meanBatchSamples();
            layers->p99Ms = _report.latencyPercentileMs(99.0);
            layers->shed = static_cast<double>(_report.droppedRequests());
        }
        const auto start = Clock::now();
        serialize(_report.requestTable());
        serialize(_report.replicaTable());
        if (layers != nullptr)
            layers->reportSec = secondsSince(start);
    }

    std::vector<Op>
    ops() const override
    {
        std::vector<Op> out;
        for (std::size_t i = 0; i < _report.requests.size(); ++i) {
            const RequestOutcome &r = _report.requests[i];
            Op op;
            op.name = "req" + std::to_string(i);
            op.values = {digest({r.dispatchSec, r.doneSec})};
            op.sane = r.completed && !r.dropped && r.doneSec > r.dispatchSec
                && r.dispatchSec >= r.request.arrivalSec - 1e-9;
            out.push_back(op);
        }
        return out;
    }

    std::vector<std::string>
    inputs() const override
    {
        std::vector<std::string> lines;
        for (const Request &r : _stream)
            lines.push_back(requestLine(r));
        return lines;
    }

    const char *
    fields() const override
    {
        return "digest32(dispatch_s done_s)";
    }

  private:
    std::vector<Request> _stream;
    std::unique_ptr<ServingCluster> _serving;
    ServingReport _report;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "train_grid")
        return std::make_unique<TrainGrid>();
    if (name == "cluster_contend")
        return std::make_unique<ClusterContend>();
    if (name == "serve_burst")
        return std::make_unique<ServeBurst>();
    return nullptr;
}

// ------------------------------------------------------------------
// Benchmark runner.

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 2;
/** Set-ups timed per pass; setup_s is their median over the run. */
constexpr int kSetupReps = 5;
/** Untraced passes needed for the cross-pass determinism check. */
constexpr int kMinPasses = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 30.0;
    bool trace = false;
    std::string expectedDir = "perfbench/expected";
    bool bless = false;
    bool inputs = false;
    std::vector<std::string> classify;
};

std::string
expectedPath(const Options &opts, const Workload &w, std::uint64_t seed)
{
    std::string path = opts.expectedDir + "/" + opts.workload;
    if (w.seeded())
        path += ".seed" + std::to_string(seed);
    return path + ".txt";
}

/** One set-up then one untraced run of @p seed; returns its ops. */
std::vector<Op>
runOnce(Workload &w, std::uint64_t seed)
{
    SetupSplit split;
    w.setup(seed, nullptr, split);
    w.run(nullptr);
    return w.ops();
}

/** Rewrite the stored outputs of the stored seeds; print what moved. */
int
bless(const Options &opts, Workload &w)
{
    std::vector<std::uint64_t> seeds = {kDefaultSeed};
    if (w.seeded())
        seeds.push_back(kHeldOutSeed);
    for (std::uint64_t seed : seeds) {
        const std::string path = expectedPath(opts, w, seed);
        Expected old;
        const bool had = loadExpected(path, old);
        const std::vector<Op> ops = runOnce(w, seed);
        int moved = 0;
        for (const Op &op : ops) {
            auto it = old.find(op.name);
            if (it != old.end() && sameOutputs(op, it->second))
                continue;
            ++moved;
            std::cout << "moved " << op.name << ":";
            if (it != old.end())
                for (double v : it->second)
                    std::cout << ' ' << formatValue(v);
            else
                std::cout << " (new)";
            std::cout << " ->";
            for (double v : op.values)
                std::cout << ' ' << formatValue(v);
            std::cout << '\n';
        }
        writeExpected(path,
                      "perfbench expected outputs: workload=" + opts.workload
                          + (w.seeded() ? " seed=" + std::to_string(seed)
                                        : std::string(" (any seed)"))
                          + " fields=" + w.fields(),
                      ops);
        std::cout << path << ": " << ops.size() << " ops, " << moved
                  << " moved" << (had ? "" : " (file created)") << '\n';
    }
    return 0;
}

void
printMetric(std::ostream &os, bool &first, const std::string &name,
            double value, const std::string &unit)
{
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
       << formatValue(std::isfinite(value) ? value : 0.0)
       << ", \"unit\": \"" << unit << "\"}";
    first = false;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

using MetricRow = std::vector<Metric>;

/** Per-layer metrics of one traced pass. */
MetricRow
layerMetrics(const LayerSample &s, const SetupSplit &split,
             double allocSetup)
{
    std::map<std::string, ProfiledLabel> by_layer;
    ProfiledLabel unclassified;
    for (const auto &[label, stats] : s.profiler.labels()) {
        const std::string layer = classifyLabel(label);
        ProfiledLabel &slot = layer.empty() ? unclassified : by_layer[layer];
        slot.count += stats.count;
        slot.wallNs += stats.wallNs;
    }
    const double cb_total = s.profiler.wallSeconds();
    const double unattributed = cb_total > 0.0
        ? 1e-9 * static_cast<double>(unclassified.wallNs) / cb_total
        : 0.0;
    auto events = [&](const char *layer) {
        return static_cast<double>(by_layer[layer].count);
    };
    auto cb = [&](const char *layer) {
        return 1e-9 * static_cast<double>(by_layer[layer].wallNs);
    };
    const double sim_events = static_cast<double>(s.profiler.eventsExecuted());
    // Outside-callback time of the run calls: the kernel's push, pop
    // and dispatch, the profiler's own per-event bookkeeping, and the
    // session set-up done inside the calls.
    const double kernel = std::max(
        0.0, s.runCallSec - cb_total
                 - (s.buildsInRun ? s.systemBuildSec : 0.0));
    const double hits = static_cast<double>(s.paging.demandHits);
    const double misses = static_cast<double>(s.paging.demandMisses);
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    return {
        {"sim.events", sim_events, "count"},
        {"sim.peak_depth",
         static_cast<double>(s.profiler.peakHeapDepth()), "count"},
        {"sim.kernel_s", kernel, "s"},
        {"sim.kernel_ns_per_event", 1e9 * ratio(kernel, sim_events), "ns"},
        {"interconnect.events", events("interconnect"), "count"},
        {"interconnect.events_per_transfer",
         ratio(events("interconnect"), s.chanTransfers), "ratio"},
        {"interconnect.cb_s", cb("interconnect"), "s"},
        {"interconnect.transfers", s.chanTransfers, "count"},
        {"interconnect.bytes", s.chanBytes, "B"},
        {"interconnect.busy_frac", ratio(s.chanBusySec, s.chanSpanSec),
         "frac"},
        {"collective.events", events("collective"), "count"},
        {"collective.cb_s", cb("collective"), "s"},
        {"collective.ops", s.collectiveOps, "count"},
        {"collective.bytes", s.collectiveBytes, "B"},
        {"vmem.events", events("vmem"), "count"},
        {"vmem.cb_s", cb("vmem"), "s"},
        {"vmem.dma_transfers", s.dmaTransfers, "count"},
        {"vmem.dma_bytes", s.dmaBytes, "B"},
        {"vmem.demand_misses", misses, "count"},
        {"vmem.hit_rate", ratio(hits, hits + misses), "frac"},
        {"vmem.stall_s", s.paging.stallSec, "s"},
        {"system.build_s", s.systemBuildSec, "s"},
        {"system.op_events", events("system"), "count"},
        {"system.op_cb_s", cb("system"), "s"},
        {"system.compute_busy_frac",
         ratio(s.computeBusySec, s.computeSpanSec), "frac"},
        {"dnn.build_s", split.dnnSec, "s"},
        {"workloads.synth_s", split.synthSec, "s"},
        {"cluster.events", events("cluster"), "count"},
        {"cluster.cb_s", cb("cluster"), "s"},
        {"cluster.mean_queue_s", s.meanQueueSec, "s"},
        {"cluster.pool_alloc_failures", s.poolAllocFailures, "count"},
        {"serving.events", events("serving"), "count"},
        {"serving.cb_s", cb("serving"), "s"},
        {"serving.batches", s.batches, "count"},
        {"serving.mean_batch", s.meanBatch, "samples"},
        {"serving.p99_ms", s.p99Ms, "ms"},
        {"serving.shed", s.shed, "count"},
        {"core.report_s", s.reportSec, "s"},
        {"alloc.setup", allocSetup, "count"},
        {"alloc.run", s.allocRun, "count"},
        {"alloc.per_event", ratio(s.allocRun, sim_events), "ratio"},
        {"trace.unattributed_frac", unattributed, "frac"},
    };
}

int
benchmark(const Options &opts, Workload &w)
{
    Verifier verifier;
    std::vector<double> wall; ///< Raw host seconds per untraced pass.
    std::vector<double> traced_wall;
    std::vector<double> setup;
    // The same times at reference host speed (see calibrationSec).
    std::vector<double> wall_ref;
    std::vector<double> setup_ref;
    std::vector<double> calibration;
    struct TracedPass
    {
        std::unique_ptr<LayerSample> layers;
        SetupSplit split;
        double allocSetup = 0.0;
    };
    std::vector<TracedPass> traced_passes;

    const auto start = Clock::now();
    for (int pass = 0;; ++pass) {
        // Traced runs alternate untraced and traced passes.
        const bool traced = opts.trace && pass % 2 == 1;
        const bool enough = pass >= (opts.trace ? 2 : kMinPasses);
        if (enough && secondsSince(start) >= opts.seconds)
            break;

        auto layers = traced ? std::make_unique<LayerSample>() : nullptr;
        const double calibration_before = calibrationSec();
        const std::size_t first_setup = setup.size();
        SetupSplit split;
        double alloc_setup = 0.0;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            // The last set-up builds the facades this pass runs.
            const bool observed = traced && rep + 1 == kSetupReps;
            DesProfiler *profiler = observed ? &layers->profiler : nullptr;
            w.release();
            std::optional<AllocCount> counter;
            if (observed)
                counter.emplace();
            const auto t0 = Clock::now();
            w.setup(opts.seed, profiler, split);
            setup.push_back(secondsSince(t0));
            if (counter)
                alloc_setup = counter->count();
        }

        if (traced) {
            const auto t0 = Clock::now();
            {
                AllocCount counter;
                w.run(layers.get());
                layers->allocRun = counter.count();
            }
            traced_wall.push_back(secondsSince(t0));
            traced_passes.push_back({std::move(layers), split, alloc_setup});
        } else {
            const auto t0 = Clock::now();
            w.run(nullptr);
            wall.push_back(secondsSince(t0));
        }
        calibration.push_back(0.5 * (calibration_before + calibrationSec()));
        const double speed = kReferenceCalibrationSec / calibration.back();
        if (!traced)
            wall_ref.push_back(wall.back() * speed);
        for (std::size_t i = first_setup; i < setup.size(); ++i)
            setup_ref.push_back(setup[i] * speed);
        verifier.addPass(w.ops());
    }

    // Read before the untimed reference run below can raise it.
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

    // Exact check against the stored outputs. A seed without stored
    // outputs is checked for determinism and sanity above, and the
    // stored default seed is run once more, untimed, so every run
    // still compares simulated outputs against stored values.
    Expected expected;
    Verifier reference;
    const bool stored =
        loadExpected(expectedPath(opts, w, opts.seed), expected)
        || !w.seeded() || opts.seed == kDefaultSeed;
    if (stored) {
        verifier.compare(expected, "seed " + std::to_string(opts.seed));
    } else {
        std::cerr << "perfbench: no stored outputs for seed " << opts.seed
                  << "; checking the default seed " << kDefaultSeed
                  << " as the reference\n";
        loadExpected(expectedPath(opts, w, kDefaultSeed), expected);
        w.release();
        reference.addPass(runOnce(w, kDefaultSeed));
        reference.compare(expected, "reference seed");
    }
    const std::uint64_t attempted =
        verifier.attempted() + reference.attempted();
    const std::uint64_t verified = verifier.verified() + reference.verified();

    std::cout << "perfbench " << opts.workload << " seed=" << opts.seed
              << " passes=" << wall.size() + traced_wall.size()
              << " (traced " << traced_wall.size() << ")"
              << " raw wall_s median=" << median(wall)
              << " min=" << *std::min_element(wall.begin(), wall.end())
              << " max=" << *std::max_element(wall.begin(), wall.end())
              << " raw setup_s median=" << median(setup)
              << " calibration_s median=" << median(calibration)
              << " ops=" << verified
              << "/" << attempted << "\nwall_s per pass:";
    for (double t : wall)
        std::cout << ' ' << t;
    std::cout << '\n';

    std::set<std::string> unclassified;
    for (const TracedPass &pass : traced_passes)
        for (const auto &[label, stats] : pass.layers->profiler.labels())
            if (classifyLabel(label).empty())
                unclassified.insert(label);

    bool correct = verified == attempted && attempted > 0;
    std::ostringstream metrics;
    bool first = true;
    if (!opts.trace) {
        printMetric(metrics, first, "wall_s", median(wall_ref), "s");
        printMetric(metrics, first, "setup_s", median(setup_ref), "s");
        printMetric(metrics, first, "peak_rss_mb", peak_rss_mb, "MB");
        printMetric(metrics, first, "verified_ops_frac",
                    attempted > 0 ? static_cast<double>(verified)
                            / static_cast<double>(attempted)
                                  : 0.0,
                    "frac");
    } else {
        std::vector<MetricRow> layer_rows;
        for (const TracedPass &pass : traced_passes)
            layer_rows.push_back(
                layerMetrics(*pass.layers, pass.split, pass.allocSetup));
        for (std::size_t i = 0; i < layer_rows.front().size(); ++i) {
            std::vector<double> values;
            for (const MetricRow &row : layer_rows)
                values.push_back(row[i].value);
            printMetric(metrics, first, layer_rows.front()[i].name,
                        median(values), layer_rows.front()[i].unit);
        }
        printMetric(metrics, first, "trace.overhead_frac",
                    median(traced_wall) / median(wall) - 1.0, "frac");
        for (const std::string &label : unclassified)
            std::cerr << "perfbench: event label '" << label
                      << "' matches no layer class\n";
        correct = correct && unclassified.empty();
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << attempted - verified
              << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
    return unclassified.empty() ? 0 : 1;
}

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "train_grid|cluster_contend|serve_burst [--seed N] "
                 "[--seconds S] [--trace 0|1] [--expected-dir DIR] "
                 "[--bless] [--inputs] [--classify LABEL...]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            opts.workload = value();
        else if (arg == "--seed")
            opts.seed = std::stoull(value());
        else if (arg == "--seconds")
            opts.seconds = std::stod(value());
        else if (arg == "--trace")
            opts.trace = value() != "0";
        else if (arg == "--expected-dir")
            opts.expectedDir = value();
        else if (arg == "--bless")
            opts.bless = true;
        else if (arg == "--inputs")
            opts.inputs = true;
        else if (arg == "--classify")
            while (i + 1 < argc)
                opts.classify.push_back(argv[++i]);
        else
            usage(("unknown argument " + arg).c_str());
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    LogConfig::verbose = false;
    Options opts;
    try {
        opts = parseArgs(argc, argv);
    } catch (const std::exception &) {
        usage("malformed number");
    }

    if (!opts.classify.empty()) {
        int status = 0;
        for (const std::string &label : opts.classify) {
            const std::string layer = classifyLabel(label);
            std::cout << label << ' ' << (layer.empty() ? "-" : layer) << '\n';
            status = layer.empty() ? 1 : status;
        }
        return status;
    }

    std::unique_ptr<Workload> w = makeWorkload(opts.workload);
    if (!w)
        usage(("unknown workload '" + opts.workload + "'").c_str());
    if (opts.bless)
        return bless(opts, *w);
    if (opts.inputs) {
        SetupSplit split;
        w->setup(opts.seed, nullptr, split);
        for (const std::string &line : w->inputs())
            std::cout << line << '\n';
        return 0;
    }
    return benchmark(opts, *w);
}
