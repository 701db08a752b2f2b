/**
 * @file
 * ServingCluster implementation.
 */

#include "serving/serving.hh"

#include <algorithm>

#include "sim/causal.hh"
#include "sim/logging.hh"
#include "sim/simcheck.hh"
#include "sim/trace.hh"

namespace mcdla
{

void
simcheckVerifyRequestOutcomes(
    const std::vector<RequestOutcome> &outcomes)
{
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RequestOutcome &outcome = outcomes[i];
        if (outcome.completed && outcome.dropped)
            simcheck::failUntimed(
                "serving",
                "request %zu (%s) both completed and was shed", i,
                outcome.request.name.c_str());
        if (!outcome.completed && !outcome.dropped)
            simcheck::failUntimed(
                "serving",
                "request %zu (%s) neither completed nor was shed "
                "(lost in a queue)",
                i, outcome.request.name.c_str());
        if (outcome.completed
            && (outcome.replica < 0 || outcome.dispatchSec < 0.0
                || outcome.doneSec < outcome.dispatchSec))
            simcheck::failUntimed(
                "serving",
                "request %zu (%s) completed with inconsistent "
                "routing/timestamps (replica %d, dispatch %g, done %g)",
                i, outcome.request.name.c_str(), outcome.replica,
                outcome.dispatchSec, outcome.doneSec);
    }
}

ServingCluster::ServingCluster(ServingConfig cfg,
                               std::vector<Request> stream)
    : _cfg(std::move(cfg)), _stream(std::move(stream))
{
    std::stable_sort(_stream.begin(), _stream.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrivalSec < b.arrivalSec;
                     });

    _system = std::make_unique<System>(_eq, _cfg.base.config());
    _sloSec = _cfg.base.sloMs / 1e3;
    if (_sloSec <= 0.0)
        fatal("serving requires a positive SLO (got %g ms)",
              _cfg.base.sloMs);
    _maxBatch = static_cast<int>(_cfg.base.globalBatch);
    if (_maxBatch < 1)
        fatal("serving requires a positive max batch (got %d)",
              _maxBatch);

    const int replicas = _cfg.base.replicas;
    if (replicas < 1)
        fatal("serving requires at least one replica (got %d)",
              replicas);
    if (replicas > _system->numDevices())
        fatal("%d replicas exceed the machine's %d devices", replicas,
              _system->numDevices());
    if (!_cfg.trainingJobs.empty()
        && replicas >= _system->numDevices())
        fatal("co-located training needs at least one non-replica "
              "device (%d replicas on %d devices)",
              replicas, _system->numDevices());

    _net = _networks.network(_cfg.base.workload);
    for (const Request &request : _stream)
        if (request.samples > _maxBatch)
            fatal("request %s carries %d samples but --batch caps "
                  "batches at %d", request.name.c_str(),
                  request.samples, _maxBatch);

    _pool = makeSharedPool(*_system, _cfg.allocator);
    _policy = makeBatchPolicy(_cfg.base.batchPolicy, _maxBatch,
                              _cfg.base.batchTimeoutMs / 1e3);
    _router = makeRouter(_cfg.base.router);

    // Pin each replica's backing store for the whole run: a replica at
    // max batch demands the same remote buffers a single-device
    // training session of that batch would allocate.
    JobSpec replica_spec;
    replica_spec.workload = _cfg.base.workload;
    replica_spec.mode = ParallelMode::DataParallel;
    replica_spec.batch = _maxBatch;
    replica_spec.devices = 1;
    _replicaPool = JobRunner::jobPoolBytes(
        replica_spec, *_net, _system->config(),
        _system->addressSpace(0).pageBytes());

    _replicas.resize(static_cast<std::size_t>(replicas));
    for (int r = 0; r < replicas; ++r) {
        Replica &replica = _replicas[static_cast<std::size_t>(r)];
        replica.device = r;
        if (_replicaPool == 0)
            continue;
        auto block = _pool->allocate(_replicaPool);
        if (!block)
            fatal("cannot pin replica %d: the pool has no room for "
                  "its %s backing store", r,
                  formatBytes(static_cast<double>(
                      _replicaPool)).c_str());
        replica.block = *block;
        replica.hasBlock = true;
    }

    _outcomes.resize(_stream.size());
    for (std::size_t i = 0; i < _stream.size(); ++i) {
        if (_stream[i].name.empty())
            _stream[i].name = "req" + std::to_string(i);
        _outcomes[i].request = _stream[i];
    }

    // Co-located jobs queue FIFO on the lowest free non-replica
    // devices; the replicas' pinned blocks count against feasibility.
    std::vector<int> train_devices;
    for (int d = replicas; d < _system->numDevices(); ++d)
        train_devices.push_back(d);
    _jobs = std::make_unique<JobRunner>(
        *_system, _networks, *_pool, _cfg.allocator,
        std::move(_cfg.trainingJobs), train_devices,
        SchedulerKind::Fifo, JobPlacement::First,
        _replicaPool * static_cast<std::uint64_t>(replicas), "serving",
        _cfg.trace, _cfg.progress);
}

ServingReport
ServingCluster::run()
{
    if (_ran)
        fatal("a ServingCluster can only run once");
    _ran = true;

    if (_cfg.profiler != nullptr)
        _eq.setProfiler(_cfg.profiler);
    if (_cfg.causal != nullptr)
        _eq.setCausalRecorder(_cfg.causal);
    if (_cfg.trace != nullptr)
        _system->collectives().setTraceSink(_cfg.trace);
    if (_cfg.metrics != nullptr) {
        registerSystemMetrics(*_cfg.metrics, *_system);
        _cfg.metrics->add("pool.used_gib", [this] {
            return static_cast<double>(_pool->usedBytes())
                / (1024.0 * 1024.0 * 1024.0);
        });
        _cfg.metrics->add("serve.queued_samples", [this] {
            int total = 0;
            for (const Replica &replica : _replicas)
                total += replica.queuedSamples;
            return static_cast<double>(total);
        });
        _cfg.metrics->add("serve.inflight_samples", [this] {
            int total = 0;
            for (const Replica &replica : _replicas)
                total += replica.inflightSamples;
            return static_cast<double>(total);
        });
        _cfg.metrics->add("serve.busy_replicas", [this] {
            int busy = 0;
            for (const Replica &replica : _replicas)
                busy += replica.busy ? 1 : 0;
            return static_cast<double>(busy);
        });
        for (std::size_t r = 0; r < _replicas.size(); ++r) {
            _cfg.metrics->add(
                "serve.r" + std::to_string(r) + ".queue", [this, r] {
                    return static_cast<double>(
                        _replicas[r].queuedSamples);
                });
        }
        _cfg.metrics->start(_eq);
    }

    {
        // A request's batch launch hangs off its arrival: the gap is
        // batch-coalescing wait in the serving context.
        CausalScope causal_scope(_eq.causalRecorder(), WaitKind::Batch,
                                 CausalCtx::Serving);
        for (std::size_t i = 0; i < _stream.size(); ++i) {
            _eq.schedule(secondsToTicks(_stream[i].arrivalSec),
                         [this, i] { onRequestArrival(i); },
                         "request_arrival");
        }
    }
    _jobs->scheduleArrivals();
    _eq.run();

    for (const Replica &replica : _replicas) {
        if (!replica.queue.empty() || replica.busy)
            panic("serving drained with replica %d still loaded "
                  "(%zu queued, busy=%d)", replica.device,
                  replica.queue.size(), replica.busy ? 1 : 0);
    }
    _jobs->checkDrained();
    if (simcheck::enabled())
        simcheckVerifyRequestOutcomes(_outcomes);

    ServingReport report;
    report.requests = _outcomes;
    report.trainingJobs = _jobs->outcomes();
    report.makespanSec = ticksToSeconds(_eq.now());
    report.batchPolicy = _cfg.base.batchPolicy;
    report.router = _cfg.base.router;
    report.sloSec = _sloSec;
    report.poolCapacity = _pool->capacity();
    report.poolPeakUsed = _pool->peakUsedBytes();
    report.replicas.reserve(_replicas.size());
    for (const Replica &replica : _replicas) {
        ReplicaStats stats;
        stats.device = replica.device;
        stats.batches = replica.batches;
        stats.samplesServed = replica.samplesServed;
        stats.busySec = replica.busySec;
        stats.ewmaPerSampleSec = replica.ewmaPerSampleSec;
        stats.peakQueueSamples = replica.peakQueueSamples;
        report.replicas.push_back(stats);
    }
    return report;
}

ReplicaLoad
ServingCluster::loadView(const Replica &replica) const
{
    ReplicaLoad view;
    view.queuedSamples = replica.queuedSamples;
    view.inflightSamples = replica.inflightSamples;
    view.ewmaPerSampleSec = replica.ewmaPerSampleSec;
    if (replica.busy) {
        const double predicted =
            static_cast<double>(replica.inflightSamples)
            * replica.ewmaPerSampleSec;
        view.busyRemainingSec =
            std::max(0.0, replica.batchStartSec + predicted
                              - ticksToSeconds(_eq.now()));
    }
    return view;
}

void
ServingCluster::onRequestArrival(std::size_t index)
{
    ++_arrived;
    RequestOutcome &outcome = _outcomes[index];
    const int samples = outcome.request.samples;

    std::vector<ReplicaLoad> views;
    views.reserve(_replicas.size());
    for (const Replica &replica : _replicas)
        views.push_back(loadView(replica));
    const std::size_t r = _router->route(views, samples);
    if (r >= _replicas.size())
        panic("router %s picked replica %zu of %zu", _router->name(),
              r, _replicas.size());

    // SLO-headroom admission: when even the chosen replica cannot
    // plausibly make the deadline, shed at the door rather than let a
    // doomed request deepen every subsequent prediction.
    if (_cfg.admitGraceFactor > 0.0
        && views[r].ewmaPerSampleSec > 0.0
        && views[r].predictedLatencySec(samples)
            > _cfg.admitGraceFactor * _sloSec) {
        outcome.dropped = true;
        if (_cfg.progress)
            inform("t=%.4fs shed %s (predicted %.1f ms vs %.1f ms "
                   "SLO)", ticksToSeconds(_eq.now()),
                   outcome.request.name.c_str(),
                   views[r].predictedLatencySec(samples) * 1e3,
                   _sloSec * 1e3);
        if (_cfg.trace != nullptr)
            _cfg.trace->addInstant("serving", "shed",
                                   "shed " + outcome.request.name,
                                   _eq.now(), "request");
    } else {
        outcome.replica = static_cast<int>(r);
        if (_cfg.trace != nullptr)
            _cfg.trace->asyncBegin("serving", "requests",
                                   outcome.request.name,
                                   static_cast<std::uint64_t>(index)
                                       + 1,
                                   _eq.now(), "request");
        Replica &replica = _replicas[r];
        replica.queue.push_back(index);
        replica.queuedSamples += samples;
        replica.peakQueueSamples =
            std::max(replica.peakQueueSamples, replica.queuedSamples);
        maybeLaunch(r);
    }

    // The last arrival flips every policy into drain mode: re-poll
    // every idle replica so partial batches parked behind a
    // not-yet-full static/dynamic threshold flush instead of wedging
    // (shed or not — drain applies to all queues either way).
    if (_arrived == _stream.size())
        for (std::size_t i = 0; i < _replicas.size(); ++i)
            maybeLaunch(i);
}

void
ServingCluster::maybeLaunch(std::size_t r)
{
    Replica &replica = _replicas[r];
    if (replica.busy || replica.queue.empty())
        return;

    const double now = ticksToSeconds(_eq.now());
    const double oldest_wait = std::max(
        0.0, now
            - _outcomes[replica.queue.front()].request.arrivalSec);
    const bool drained = _arrived == _stream.size();
    if (_policy->launchSamples(replica.queuedSamples, oldest_wait,
                               drained) > 0) {
        launchBatch(r);
        return;
    }

    // The dynamic policy launches on a timer: re-poll when the oldest
    // request's wait crosses the timeout. Stale fires are harmless —
    // the re-poll just re-evaluates the policy.
    const double max_wait = _policy->maxWaitSec();
    if (max_wait >= 0.0 && !replica.timerArmed) {
        replica.timerArmed = true;
        const double fire_at =
            _outcomes[replica.queue.front()].request.arrivalSec
            + max_wait;
        // Strictly after now: tick rounding can land the deadline a
        // hair *before* the timeout is satisfied, and a same-tick
        // re-arm would spin forever. One tick forward per re-poll
        // guarantees progress past the rounding gap.
        const Tick fire_tick = std::max(secondsToTicks(fire_at),
                                        _eq.now() + 1);
        CausalScope causal_scope(_eq.causalRecorder(), WaitKind::Batch,
                                 CausalCtx::Serving);
        _eq.schedule(fire_tick,
                     [this, r] {
                         _replicas[r].timerArmed = false;
                         maybeLaunch(r);
                     },
                     "batch_timeout");
    }
}

void
ServingCluster::launchBatch(std::size_t r)
{
    Replica &replica = _replicas[r];

    // Coalesce the maximal queue prefix that fits the batch cap; the
    // intake check guarantees the front request always fits.
    int batch_samples = 0;
    while (!replica.queue.empty()) {
        const std::size_t index = replica.queue.front();
        const int samples = _outcomes[index].request.samples;
        if (batch_samples + samples > _maxBatch)
            break;
        replica.queue.pop_front();
        replica.queuedSamples -= samples;
        batch_samples += samples;
        replica.inflight.push_back(index);
    }
    if (replica.inflight.empty())
        panic("replica %d launched an empty batch", replica.device);

    const double now = ticksToSeconds(_eq.now());
    for (std::size_t index : replica.inflight)
        _outcomes[index].dispatchSec = now;
    replica.busy = true;
    replica.batchStartSec = now;
    replica.batchStartTick = _eq.now();
    replica.inflightSamples = batch_samples;

    replica.session = std::make_unique<TrainingSession>(
        *_system, *_net, ParallelMode::DataParallel, batch_samples,
        /*pipeline_stages=*/0, /*microbatches=*/1,
        std::vector<int>{replica.device}, /*forward_only=*/true);
    if (_cfg.trace != nullptr) {
        // A flow arrow links the batch span (emitted when it
        // completes) to the batch's first compute op on the device.
        replica.session->setTraceSink(_cfg.trace);
        const std::uint64_t flow = _cfg.trace->newFlow();
        _cfg.trace->flowBegin("serving",
                              "replica" + std::to_string(r),
                              "dispatch", _eq.now(), flow, "batch");
        replica.session->setIterationFlow(flow);
    }
    if (_cfg.progress)
        inform("t=%.4fs replica %d launches a %d-sample batch "
               "(%zu requests, %d queued behind)",
               now, replica.device, batch_samples,
               replica.inflight.size(), replica.queuedSamples);
    replica.session->startIteration(
        [this, r](const IterationResult &result) {
            onBatchDone(r, result);
        });
}

void
ServingCluster::onBatchDone(std::size_t r,
                            const IterationResult &result)
{
    Replica &replica = _replicas[r];
    const double now = ticksToSeconds(_eq.now());
    const double service = now - replica.batchStartSec;
    const int batch_samples = replica.inflightSamples;

    for (std::size_t index : replica.inflight) {
        RequestOutcome &outcome = _outcomes[index];
        if (simcheck::enabled() && (outcome.completed || outcome.dropped))
            simcheck::fail("serving", _eq.now(),
                           "request %zu (%s) finishing twice (already "
                           "%s)",
                           index, outcome.request.name.c_str(),
                           outcome.completed ? "completed" : "shed");
        outcome.doneSec = now;
        outcome.batchSamples = batch_samples;
        outcome.computeSec = result.breakdown.computeSec;
        outcome.pagingSec = result.breakdown.vmemSec;
        outcome.completed = true;
        if (_cfg.trace != nullptr)
            _cfg.trace->asyncEnd("serving", "requests",
                                 outcome.request.name,
                                 static_cast<std::uint64_t>(index) + 1,
                                 _eq.now(), "request");
    }
    if (_cfg.trace != nullptr)
        _cfg.trace->addSpan("serving", "replica" + std::to_string(r),
                            "batch x" + std::to_string(batch_samples)
                                + " (" + std::to_string(
                                    replica.inflight.size())
                                + " req)",
                            replica.batchStartTick,
                            _eq.now() - replica.batchStartTick,
                            "batch");

    // Update the replica's observed service rate — the SLO-aware
    // router's whole signal. A short memory (alpha 0.5) tracks the
    // contention swings a co-located training job causes.
    const double observed =
        service / static_cast<double>(batch_samples);
    replica.ewmaPerSampleSec = replica.ewmaPerSampleSec == 0.0
        ? observed
        : 0.5 * (replica.ewmaPerSampleSec + observed);

    ++replica.batches;
    replica.samplesServed += batch_samples;
    replica.busySec += service;
    replica.inflight.clear();
    replica.inflightSamples = 0;
    if (_cfg.progress)
        inform("t=%.4fs replica %d served %d samples in %.2f ms "
               "(%.3f ms/sample EWMA)", now, replica.device,
               batch_samples, service * 1e3,
               replica.ewmaPerSampleSec * 1e3);

    // Tear down from a fresh event: the session is live on the call
    // stack (this runs inside its completion callback). Cleanup
    // launches the next coalesced batch, so queued requests' service
    // hangs off it as batch-wait edges.
    CausalScope causal_scope(_eq.causalRecorder(), WaitKind::Batch,
                             CausalCtx::Serving);
    _eq.schedule(_eq.now(), [this, r] { cleanupBatch(r); },
                 "batch_cleanup");
}

void
ServingCluster::cleanupBatch(std::size_t r)
{
    Replica &replica = _replicas[r];
    replica.session->releaseBuffers();
    replica.session.reset();
    replica.busy = false;
    maybeLaunch(r);
}

// ------------------------------------------------------------- report

std::size_t
ServingReport::completedRequests() const
{
    std::size_t n = 0;
    for (const RequestOutcome &outcome : requests)
        if (outcome.completed)
            ++n;
    return n;
}

std::size_t
ServingReport::droppedRequests() const
{
    std::size_t n = 0;
    for (const RequestOutcome &outcome : requests)
        if (outcome.dropped)
            ++n;
    return n;
}

double
ServingReport::meanLatencyMs() const
{
    double total = 0.0;
    std::size_t n = 0;
    for (const RequestOutcome &outcome : requests) {
        if (!outcome.completed)
            continue;
        total += outcome.latencySec();
        ++n;
    }
    return n > 0 ? total * 1e3 / static_cast<double>(n) : 0.0;
}

double
ServingReport::latencyPercentileMs(double p) const
{
    std::vector<double> latencies;
    for (const RequestOutcome &outcome : requests)
        if (outcome.completed)
            latencies.push_back(outcome.latencySec() * 1e3);
    return percentile(std::move(latencies), p);
}

double
ServingReport::sloViolationRate() const
{
    std::size_t violated = 0;
    std::size_t n = 0;
    for (const RequestOutcome &outcome : requests) {
        if (!outcome.completed)
            continue;
        ++n;
        if (!outcome.sloMet(sloSec))
            ++violated;
    }
    return n > 0 ? static_cast<double>(violated)
            / static_cast<double>(n)
                 : 0.0;
}

double
ServingReport::throughputRps() const
{
    return makespanSec > 0.0
        ? static_cast<double>(completedRequests()) / makespanSec
        : 0.0;
}

double
ServingReport::meanBatchSamples() const
{
    std::int64_t samples = 0;
    std::int64_t batches = 0;
    for (const ReplicaStats &stats : replicas) {
        samples += stats.samplesServed;
        batches += stats.batches;
    }
    return batches > 0 ? static_cast<double>(samples)
            / static_cast<double>(batches)
                       : 0.0;
}

const std::vector<std::string> &
ServingReport::requestColumns()
{
    static const std::vector<std::string> columns = {
        "request",    "arrival_s", "samples",    "replica",
        "queue_ms",   "service_ms", "latency_ms", "batch",
        "compute_ms", "paging_ms", "slo_met",    "status"};
    return columns;
}

std::vector<ReportValue>
ServingReport::requestRow(const RequestOutcome &outcome,
                          double slo_sec)
{
    const char *status = outcome.dropped
        ? "dropped"
        : (outcome.completed ? "completed" : "incomplete");
    const bool done = outcome.completed;
    return {outcome.request.name,
            outcome.request.arrivalSec,
            static_cast<std::int64_t>(outcome.request.samples),
            static_cast<std::int64_t>(outcome.replica),
            done ? outcome.queueSec() * 1e3 : 0.0,
            done ? outcome.serviceSec() * 1e3 : 0.0,
            done ? outcome.latencySec() * 1e3 : 0.0,
            static_cast<std::int64_t>(outcome.batchSamples),
            done ? outcome.computeSec * 1e3 : 0.0,
            done ? outcome.pagingSec * 1e3 : 0.0,
            static_cast<std::int64_t>(outcome.sloMet(slo_sec) ? 1 : 0),
            std::string(status)};
}

ResultSet
ServingReport::requestTable() const
{
    ResultSet table(requestColumns());
    for (const RequestOutcome &outcome : requests)
        table.addRow(requestRow(outcome, sloSec));
    return table;
}

const std::vector<std::string> &
ServingReport::replicaColumns()
{
    static const std::vector<std::string> columns = {
        "replica",   "device",          "batches",
        "samples",   "mean_batch",      "busy_s",
        "utilization", "ewma_ms_per_sample", "peak_queue_samples"};
    return columns;
}

ResultSet
ServingReport::replicaTable() const
{
    ResultSet table(replicaColumns());
    for (std::size_t r = 0; r < replicas.size(); ++r) {
        const ReplicaStats &stats = replicas[r];
        table.addRow({static_cast<std::int64_t>(r),
                      static_cast<std::int64_t>(stats.device),
                      static_cast<std::int64_t>(stats.batches),
                      stats.samplesServed,
                      stats.meanBatchSamples(),
                      stats.busySec,
                      makespanSec > 0.0 ? stats.busySec / makespanSec
                                        : 0.0,
                      stats.ewmaPerSampleSec * 1e3,
                      static_cast<std::int64_t>(
                          stats.peakQueueSamples)});
    }
    return table;
}

} // namespace mcdla
