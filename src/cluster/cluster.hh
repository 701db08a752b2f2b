/**
 * @file
 * Cluster: multi-job scheduling over one shared machine.
 *
 * A Cluster admits a stream of training jobs (JobSpec arrivals),
 * schedules them onto the device-nodes of a single composed System
 * through a pluggable JobScheduler, and carves each job's
 * backing-store demand out of a shared MemoryPoolAllocator spanning
 * every memory-node. All admitted jobs run as concurrent
 * TrainingSessions on the one EventQueue, so their paging DMA,
 * collectives, and pipeline transfers contend on the real fabric
 * channels — no job gets private bandwidth. The run produces a
 * ClusterReport: per-job completion/queueing/slowdown metrics plus a
 * pool-occupancy timeline, both emitted through the standard
 * ResultSet CSV/JSON pipeline.
 */

#ifndef MCDLA_CLUSTER_CLUSTER_HH
#define MCDLA_CLUSTER_CLUSTER_HH

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cluster/job.hh"
#include "cluster/pool_allocator.hh"
#include "cluster/scheduler.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "core/simulator.hh"
#include "sim/random.hh"
#include "system/system.hh"
#include "system/training_session.hh"

namespace mcdla
{

/**
 * Device-selection policy for admitted jobs.
 *
 * First takes the lowest-indexed free devices (the legacy policy).
 * Compact minimizes the job's internal communication distance: it
 * greedily grows the gang from the seed whose placement has the lowest
 * total pairwise hop count, using the Router's real channel-traversal
 * distances over the fabric topology — so a job lands on devices that
 * are close on the actual wiring, not just low-numbered.
 */
enum class JobPlacement
{
    First,
    Compact,
};

/**
 * Pick @p count devices from the @p free set (ascending order) under
 * @p placement, using @p fabric's Router hop counts as the distance
 * metric for Compact. Returns the chosen devices sorted ascending;
 * fewer than @p count when the free set is too small.
 */
std::vector<int> placeJobDevices(const Fabric &fabric,
                                 const std::vector<int> &free,
                                 int count, JobPlacement placement);

/**
 * The shared backing-store pool of @p system under allocator @p kind.
 * Its capacity counts each distinct backing target once — every
 * memory-node reachable from any device, or the host DRAM for the
 * PCIe designs; designs without a backing store get a token 1-byte
 * pool so an allocator can exist. The pool replaces the standalone
 * design's static per-device carve-out: every device's remote window
 * is widened to the pool, so the allocator enforces capacity and the
 * address spaces only decide placement (the LOCAL/BW_AWARE traffic
 * fractions). Shared by Cluster and ServingCluster.
 */
std::unique_ptr<MemoryPoolAllocator> makeSharedPool(System &system,
                                                    PoolAllocatorKind kind);

/** Parse a placement token ("first" / "compact"); fatal. */
JobPlacement parseJobPlacement(const std::string &name);

/** Canonical CLI token of a placement policy. */
const char *jobPlacementToken(JobPlacement placement);

/** Comma-separated accepted tokens (help text). */
const std::string &jobPlacementTokenList();

/** Cluster-level configuration. */
struct ClusterConfig
{
    /**
     * The machine: design point, device count, and every hardware /
     * paging override, reusing the Scenario vocabulary. The scenario's
     * workload/mode/batch fields are ignored (jobs carry their own);
     * its seed names the synthetic job stream the caller fed to
     * synthesizeJobs(), so the label reproduces the run.
     */
    Scenario base;
    SchedulerKind scheduler = SchedulerKind::Fifo;
    PoolAllocatorKind allocator = PoolAllocatorKind::FirstFit;
    /** Device-selection policy for admitted jobs. */
    JobPlacement placement = JobPlacement::First;
    /** inform() on every admission/completion. */
    bool progress = false;

    /// @name Observability (all optional; owned by the caller)
    /// @{
    /**
     * Chrome-tracing sink: job lifecycle spans on the "cluster"
     * process (one track per job: a "queue" span from arrival to
     * start and a "job" span from start to finish), rejected-job
     * instants, plus every admitted session's compute/DMA/collective
     * spans and admit->first-op dispatch flows.
     */
    TraceSink *trace = nullptr;
    /**
     * Metric time-series: registerSystemMetrics() gauges plus pool
     * occupancy/fragmentation and queued/running job-count gauges,
     * sampled periodically for the whole run.
     */
    MetricRegistry *metrics = nullptr;
    /** DES wall-clock profiler attached to the cluster's EventQueue. */
    DesProfiler *profiler = nullptr;
    /**
     * Event-provenance recorder attached to the cluster's EventQueue.
     * Job arrivals and scheduler passes tag sched-wait edges in the
     * cluster context; admitted sessions tag their own subsystems.
     */
    CausalRecorder *causal = nullptr;
    /// @}
};

/** Final state of one submitted job. */
struct JobOutcome
{
    JobSpec spec;
    /** Device-nodes the job ran on (empty until started). */
    std::vector<int> devices;
    /** Pool bytes carved for the job's backing store. */
    std::uint64_t poolBytes = 0;
    /** Analytic-oracle solo service time (iterations x upper bound). */
    double estSoloSec = 0.0;
    double arrivalSec = 0.0;
    double startSec = -1.0;
    double finishSec = -1.0;
    bool completed = false;
    /** Infeasible on this cluster (too many devices / too much pool). */
    bool rejected = false;
    /** Metrics of the job's last iteration. */
    IterationResult lastIteration;

    /** Queueing delay (clamped: arrival ticks round to the grid). */
    double
    queueSec() const
    {
        return std::max(0.0, startSec - arrivalSec);
    }

    double serviceSec() const { return finishSec - startSec; }

    /** Job completion time: queueing plus service. */
    double jctSec() const { return finishSec - arrivalSec; }

    /** Classic slowdown: response time over actual service time. */
    double
    slowdown() const
    {
        return serviceSec() > 0.0 ? jctSec() / serviceSec() : 1.0;
    }

    /** Service-time dilation vs the analytic solo bound (contention). */
    double
    contention() const
    {
        return estSoloSec > 0.0 ? serviceSec() / estSoloSec : 1.0;
    }
};

/** One pool-occupancy observation (taken at every alloc/free). */
struct PoolSample
{
    double timeSec = 0.0;
    const char *event = ""; ///< "alloc" / "free" / "fail".
    std::string job;
    std::uint64_t usedBytes = 0;
    std::uint64_t freeBytes = 0;
    std::uint64_t largestFreeBytes = 0;
    double fragmentation = 0.0;
    int busyDevices = 0;
};

/**
 * The training-job lifecycle over a shared machine: feasibility checks
 * and the analytic solo estimate at arrival, scheduler-ordered
 * admission onto a fixed device set and the shared pool, one
 * TrainingSession per admitted job iterated on the machine's
 * EventQueue, and teardown from a zero-delay `job_cleanup` event.
 * Cluster runs every device through one; ServingCluster runs its
 * non-replica devices through one beside the pinned replica blocks.
 */
class JobRunner
{
  public:
    /**
     * @param system Machine the jobs run on (its EventQueue drives
     *        them).
     * @param networks Workload network cache.
     * @param pool Shared backing-store pool jobs carve from.
     * @param allocator Kind of @p pool (the feasibility probe).
     * @param jobs Submitted job stream (any order; sorted by arrival,
     *        unnamed jobs named "job<N>").
     * @param devices Device-nodes jobs may run on, ascending.
     * @param scheduler Admission policy over the waiting queue.
     * @param placement Device-selection policy for admitted jobs.
     * @param pinned_bytes Pool bytes held by others for the whole run;
     *        a job that can never fit beside them is rejected.
     * @param process Trace process of the job spans, and the noun of
     *        the log lines ("cluster" / "serving").
     * @param trace Chrome-tracing sink (optional).
     * @param progress inform() on every admission/completion.
     */
    JobRunner(System &system, Simulator &networks,
              MemoryPoolAllocator &pool, PoolAllocatorKind allocator,
              std::vector<JobSpec> jobs, const std::vector<int> &devices,
              SchedulerKind scheduler, JobPlacement placement,
              std::uint64_t pinned_bytes, const char *process,
              TraceSink *trace, bool progress);

    // Scheduled events capture `this`.
    JobRunner(const JobRunner &) = delete;
    JobRunner &operator=(const JobRunner &) = delete;

    /** Schedule every job's `job_arrival` event. */
    void scheduleArrivals();

    /** Panic unless every job finished or was rejected. */
    void checkDrained() const;

    const std::vector<JobOutcome> &outcomes() const { return _outcomes; }
    const std::vector<PoolSample> &timeline() const { return _timeline; }
    int busyDevices() const;
    std::size_t queuedJobs() const { return _queue.size(); }
    std::size_t runningJobs() const { return _active.size(); }

    /**
     * Backing-store pool demand of @p spec on machine @p cfg: the
     * remote bytes its TrainingSession will allocate — rounded to
     * @p page_bytes, the device address spaces' placement granularity
     * — summed over its devices (zero for designs without a backing
     * store). Mirrors the remote mallocs of
     * TrainingSession::allocateBuffers().
     */
    static std::uint64_t jobPoolBytes(const JobSpec &spec,
                                      const Network &net,
                                      const SystemConfig &cfg,
                                      std::uint64_t page_bytes
                                          = 2 * kMiB);

  private:
    /** One admitted, running job. */
    struct ActiveJob
    {
        std::unique_ptr<TrainingSession> session;
        std::shared_ptr<const Network> net;
        PoolBlock block;
        bool hasBlock = false;
        int remainingIterations = 0;
        /** Admission tick (trace span anchor). */
        Tick startTick = 0;
        /** Per-job trace track on the runner's process. */
        std::string traceTrack;
    };

    void onArrival(std::size_t index);
    void tryAdmit();
    void startJob(std::size_t queue_pos);
    void stepJob(std::size_t index);
    void finishJob(std::size_t index);
    void cleanupJob(std::size_t index);
    void samplePool(const char *event, const std::string &job);

    EventQueue &_eq;
    System &_system;
    Simulator &_networks;
    MemoryPoolAllocator &_pool;
    PoolAllocatorKind _allocator;
    std::vector<JobSpec> _specs;
    int _deviceCount;
    std::unique_ptr<JobScheduler> _scheduler;
    JobPlacement _placement;
    std::uint64_t _pinnedBytes;
    const char *_process;
    TraceSink *_trace;
    bool _progress;
    std::set<int> _freeDevices;
    std::vector<PendingJob> _queue;
    std::map<std::size_t, ActiveJob> _active;
    std::vector<JobOutcome> _outcomes;
    std::vector<PoolSample> _timeline;
    /// Job whose memory-induced head-of-line blocking was already
    /// recorded (npos = none): one failure per blocked episode.
    std::size_t _memoryBlockedJob = JobScheduler::npos;
};

/** Everything a cluster run produced. */
class ClusterReport
{
  public:
    std::vector<JobOutcome> jobs;
    std::vector<PoolSample> timeline;
    double makespanSec = 0.0;
    SchedulerKind scheduler = SchedulerKind::Fifo;
    PoolAllocatorKind allocator = PoolAllocatorKind::FirstFit;
    JobPlacement placement = JobPlacement::First;
    std::uint64_t poolCapacity = 0;
    std::uint64_t poolPeakUsed = 0;
    std::uint64_t allocationFailures = 0;

    /// @name Aggregate metrics (over completed jobs)
    /// @{
    std::size_t completedJobs() const;
    double meanJctSec() const;
    double maxJctSec() const;
    double meanQueueSec() const;
    double meanSlowdown() const;
    /** JCT tail percentile (core/report percentile()), seconds. */
    double jctPercentileSec(double p) const;
    /** Slowdown tail percentile over completed jobs. */
    double slowdownPercentile(double p) const;
    /** Mean pool fragmentation over the timeline samples. */
    double meanFragmentation() const;
    double peakPoolUtilization() const;
    /// @}

    /// @name ResultSet emission (CSV/JSON via core/report)
    /// @{
    static const std::vector<std::string> &jobColumns();
    static std::vector<ReportValue> jobRow(const JobOutcome &job);
    ResultSet jobTable() const;

    static const std::vector<std::string> &poolColumns();
    ResultSet poolTable() const;
    /// @}
};

/** One cluster simulation: a machine, a job stream, a policy pair. */
class Cluster
{
  public:
    /**
     * @param cfg Machine + policy configuration.
     * @param jobs Submitted job stream (any order; sorted by arrival).
     */
    Cluster(ClusterConfig cfg, std::vector<JobSpec> jobs);

    /** Run the whole stream to completion. Callable once. */
    ClusterReport run();

    /// @name Introspection (tests)
    /// @{
    System &system() { return *_system; }
    std::uint64_t poolCapacityBytes() const { return _pool->capacity(); }
    /// @}

  private:
    ClusterConfig _cfg;
    EventQueue _eq;
    std::unique_ptr<System> _system;
    Simulator _networks; ///< Workload network cache.
    std::unique_ptr<MemoryPoolAllocator> _pool;
    std::unique_ptr<JobRunner> _runner;
    bool _ran = false;
};

} // namespace mcdla

#endif // MCDLA_CLUSTER_CLUSTER_HH
