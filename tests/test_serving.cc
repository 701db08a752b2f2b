/**
 * @file
 * Unit and end-to-end tests for the inference-serving subsystem:
 * request streams (synthesis determinism, trace round-trips), batch
 * policies, routers, the percentile helper, serving-knob validation,
 * the single-batch == standalone forward-only session guarantee, and
 * the policy inequalities the ablation demonstrates (continuous
 * batching beats static on the p99 tail at high load; SLO-aware
 * routing beats queue-depth routing under co-located training).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cluster/cluster.hh"
#include "core/options.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "core/simulator.hh"
#include "serving/batch_policy.hh"
#include "serving/request.hh"
#include "serving/router.hh"
#include "serving/serving.hh"
#include "sim/logging.hh"

namespace mcdla
{
namespace
{

class ServingTest : public ::testing::Test
{
  protected:
    void SetUp() override { LogConfig::throwOnError = true; }
    void TearDown() override { LogConfig::throwOnError = false; }
};

// --------------------------------------------------- request streams

TEST_F(ServingTest, SynthesisIsSeededAndSortedForEveryArrivalKind)
{
    for (ArrivalKind kind : allArrivalKinds()) {
        Random a(7), b(7), c(8);
        const auto x = synthesizeRequests(64, 500.0, kind, a);
        const auto y = synthesizeRequests(64, 500.0, kind, b);
        const auto z = synthesizeRequests(64, 500.0, kind, c);

        ASSERT_EQ(x.size(), 64u) << arrivalKindToken(kind);
        ASSERT_EQ(y.size(), 64u);
        bool differs = false;
        for (std::size_t i = 0; i < x.size(); ++i) {
            // Same seed: the same stream, bit for bit.
            EXPECT_EQ(x[i].arrivalSec, y[i].arrivalSec);
            EXPECT_EQ(x[i].samples, y[i].samples);
            EXPECT_GE(x[i].samples, 1);
            if (i > 0) {
                EXPECT_LE(x[i - 1].arrivalSec, x[i].arrivalSec);
            }
            if (x[i].arrivalSec != z[i].arrivalSec)
                differs = true;
        }
        // Different seed: a different stream.
        EXPECT_TRUE(differs) << arrivalKindToken(kind);
    }
}

TEST_F(ServingTest, ArrivalKindTokensRoundTrip)
{
    for (ArrivalKind kind : allArrivalKinds())
        EXPECT_EQ(parseArrivalKind(arrivalKindToken(kind)), kind);
    EXPECT_THROW(parseArrivalKind("fractal"), FatalError);
}

TEST_F(ServingTest, RequestTraceRoundTripsExactly)
{
    Random rng(11);
    const auto stream =
        synthesizeRequests(32, 1000.0, ArrivalKind::Bursty, rng);

    std::ostringstream trace;
    for (const Request &request : stream)
        trace << requestLine(request) << '\n';
    std::istringstream in(trace.str());
    const auto parsed = parseRequestTrace(in);

    ASSERT_EQ(parsed.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(parsed[i].name, stream[i].name);
        EXPECT_EQ(parsed[i].arrivalSec, stream[i].arrivalSec);
        EXPECT_EQ(parsed[i].samples, stream[i].samples);
    }
}

TEST_F(ServingTest, RequestTraceParserSortsCommentsAndRejects)
{
    {
        std::istringstream in("# a comment\n"
                              "arrival=0.5 samples=2 name=late\n"
                              "\n"
                              "arrival=0.1 name=early\n");
        const auto parsed = parseRequestTrace(in);
        ASSERT_EQ(parsed.size(), 2u);
        EXPECT_EQ(parsed[0].name, "early");
        EXPECT_EQ(parsed[0].samples, 1);
        EXPECT_EQ(parsed[1].name, "late");
        EXPECT_EQ(parsed[1].samples, 2);
    }
    {
        std::istringstream in("samples=2\n"); // no arrival
        EXPECT_THROW(parseRequestTrace(in), FatalError);
    }
    {
        std::istringstream in("arrival=0.1 flavor=mild\n");
        EXPECT_THROW(parseRequestTrace(in), FatalError);
    }
    {
        std::istringstream in("arrival=soon\n");
        EXPECT_THROW(parseRequestTrace(in), FatalError);
    }
}

// ----------------------------------------------------- batch policies

TEST_F(ServingTest, BatchPolicyTokensRoundTrip)
{
    for (BatchPolicyKind kind : allBatchPolicies())
        EXPECT_EQ(parseBatchPolicy(batchPolicyToken(kind)), kind);
    EXPECT_THROW(parseBatchPolicy("quantum"), FatalError);
}

TEST_F(ServingTest, StaticPolicyLaunchesOnlyFullBatchesUntilDrained)
{
    const auto policy =
        makeBatchPolicy(BatchPolicyKind::Static, 8, 0.005);
    EXPECT_EQ(policy->launchSamples(0, 0.0, false), 0);
    EXPECT_EQ(policy->launchSamples(7, 99.0, false), 0);
    EXPECT_EQ(policy->launchSamples(8, 0.0, false), 8);
    EXPECT_EQ(policy->launchSamples(13, 0.0, false), 8);
    // Drained: the partial tail flushes.
    EXPECT_EQ(policy->launchSamples(3, 0.0, true), 3);
    EXPECT_LT(policy->maxWaitSec(), 0.0);
}

TEST_F(ServingTest, DynamicPolicyLaunchesFullOrOnTimeout)
{
    const auto policy =
        makeBatchPolicy(BatchPolicyKind::Dynamic, 8, 0.005);
    EXPECT_EQ(policy->launchSamples(8, 0.0, false), 8);
    EXPECT_EQ(policy->launchSamples(3, 0.001, false), 0);
    EXPECT_EQ(policy->launchSamples(3, 0.005, false), 3);
    EXPECT_EQ(policy->launchSamples(3, 0.0, true), 3);
    EXPECT_DOUBLE_EQ(policy->maxWaitSec(), 0.005);
}

TEST_F(ServingTest, ContinuousPolicyLaunchesWhateverIsQueued)
{
    const auto policy =
        makeBatchPolicy(BatchPolicyKind::Continuous, 8, 0.005);
    EXPECT_EQ(policy->launchSamples(0, 0.0, false), 0);
    EXPECT_EQ(policy->launchSamples(1, 0.0, false), 1);
    EXPECT_EQ(policy->launchSamples(5, 0.0, false), 5);
    EXPECT_EQ(policy->launchSamples(21, 0.0, false), 8); // capped
    EXPECT_LT(policy->maxWaitSec(), 0.0);
}

// ------------------------------------------------------------ routers

TEST_F(ServingTest, RouterTokensRoundTrip)
{
    for (RouterKind kind : allRouters())
        EXPECT_EQ(parseRouter(routerToken(kind)), kind);
    EXPECT_EQ(parseRouter("round-robin"), RouterKind::RoundRobin);
    EXPECT_EQ(parseRouter("ll"), RouterKind::LeastLoaded);
    EXPECT_EQ(parseRouter("slo-aware"), RouterKind::SloAware);
    EXPECT_THROW(parseRouter("oracle"), FatalError);
}

std::vector<ReplicaLoad>
loads(std::initializer_list<std::pair<int, double>> specs)
{
    std::vector<ReplicaLoad> views;
    for (const auto &[queued, ewma] : specs) {
        ReplicaLoad view;
        view.queuedSamples = queued;
        view.ewmaPerSampleSec = ewma;
        views.push_back(view);
    }
    return views;
}

TEST_F(ServingTest, RoundRobinRouterCycles)
{
    const auto router = makeRouter(RouterKind::RoundRobin);
    const auto views = loads({{9, 1.0}, {0, 1.0}, {5, 1.0}});
    EXPECT_EQ(router->route(views, 1), 0u);
    EXPECT_EQ(router->route(views, 1), 1u);
    EXPECT_EQ(router->route(views, 1), 2u);
    EXPECT_EQ(router->route(views, 1), 0u);
}

TEST_F(ServingTest, LeastLoadedRouterPicksTheShallowestQueue)
{
    const auto router = makeRouter(RouterKind::LeastLoaded);
    EXPECT_EQ(router->route(loads({{4, 1.0}, {2, 1.0}, {7, 1.0}}), 1),
              1u);
    // In-flight samples count as load too.
    auto views = loads({{1, 1.0}, {2, 1.0}});
    views[0].inflightSamples = 4;
    EXPECT_EQ(router->route(views, 1), 1u);
}

TEST_F(ServingTest, SloAwareRouterPredictsWithObservedRates)
{
    const auto router = makeRouter(RouterKind::SloAware);
    // Replica 0 has the shorter queue but a 10x slower observed rate:
    // queue depth says 0, the latency prediction says 1.
    EXPECT_EQ(router->route(loads({{2, 0.010}, {5, 0.001}}), 1), 1u);
    // Warmup (no observed rates anywhere): degrade to least-loaded
    // rather than always-replica-0.
    EXPECT_EQ(router->route(loads({{3, 0.0}, {1, 0.0}}), 1), 1u);
}

// -------------------------------------------------- percentile helper

TEST_F(ServingTest, PercentileInterpolatesAndClamps)
{
    EXPECT_DOUBLE_EQ(percentile(std::vector<double>{}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
    // Linear interpolation over sorted {1,2,3,4}: p50 sits halfway
    // between the middle pair, p25 on the second element.
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 25.0), 1.75);
}

// ------------------------------------------------- scenario knob wiring

TEST_F(ServingTest, ServingLabelRoundTripsAndDefaultsAreUnchanged)
{
    Scenario sc;
    sc.workload = "VGG-E";
    // Serving off: no serve block in the label.
    EXPECT_EQ(sc.label().find("serve"), std::string::npos);

    sc.serve = true;
    sc.replicas = 4;
    sc.sloMs = 25.0;
    sc.requestRate = 1000.0;
    sc.batchPolicy = BatchPolicyKind::Dynamic;
    sc.router = RouterKind::LeastLoaded;
    EXPECT_NE(sc.label().find("/serve/r4/dynamic/least-loaded/slo25"
                              "/rps1000"),
              std::string::npos)
        << sc.label();
    // Poisson is the default and stays implicit; others are named.
    EXPECT_EQ(sc.label().find("poisson"), std::string::npos);
    sc.arrivals = ArrivalKind::Diurnal;
    EXPECT_NE(sc.label().find("/diurnal"), std::string::npos);
}

TEST_F(ServingTest, ServingOptionsParseAndValidate)
{
    {
        OptionParser opts("t", "test");
        Scenario::addOptions(opts);
        const char *argv[] = {"t",        "--serve",   "--replicas",
                              "3",        "--requests", "64",
                              "--request-rate", "750", "--slo-ms",
                              "20",       "--batch-policy", "dynamic",
                              "--arrivals", "bursty",  "--router",
                              "rr"};
        std::ostringstream err;
        ASSERT_TRUE(opts.parse(static_cast<int>(std::size(argv)),
                               argv, err));
        const Scenario sc = Scenario::fromOptions(opts);
        EXPECT_TRUE(sc.serve);
        EXPECT_EQ(sc.replicas, 3);
        EXPECT_EQ(sc.requests, 64);
        EXPECT_DOUBLE_EQ(sc.requestRate, 750.0);
        EXPECT_DOUBLE_EQ(sc.sloMs, 20.0);
        EXPECT_EQ(sc.batchPolicy, BatchPolicyKind::Dynamic);
        EXPECT_EQ(sc.arrivals, ArrivalKind::Bursty);
        EXPECT_EQ(sc.router, RouterKind::RoundRobin);
    }
    const auto rejects = [](std::initializer_list<const char *> extra) {
        OptionParser opts("t", "test");
        Scenario::addOptions(opts);
        std::vector<const char *> argv = {"t"};
        argv.insert(argv.end(), extra.begin(), extra.end());
        std::ostringstream err;
        ASSERT_TRUE(opts.parse(static_cast<int>(argv.size()),
                               argv.data(), err));
        EXPECT_THROW(Scenario::fromOptions(opts), FatalError);
    };
    rejects({"--replicas", "0"});
    rejects({"--requests", "-5"});
    rejects({"--request-rate", "0"});
    rejects({"--slo-ms", "-1"});
    rejects({"--batch-timeout-ms", "-2"});
}

TEST_F(ServingTest, ServingClusterRejectsInfeasibleShapes)
{
    const auto base = [] {
        Scenario sc;
        sc.design = SystemDesign::McDlaB;
        sc.workload = "AlexNet";
        sc.serve = true;
        sc.globalBatch = 8;
        return sc;
    }();
    Random rng(1);
    const auto stream =
        synthesizeRequests(4, 100.0, ArrivalKind::Poisson, rng);

    { // More replicas than devices.
        ServingConfig cfg;
        cfg.base = base;
        cfg.base.replicas = 9;
        EXPECT_THROW(ServingCluster(cfg, stream), FatalError);
    }
    { // Co-located training with every device a replica.
        ServingConfig cfg;
        cfg.base = base;
        cfg.base.replicas = 8;
        JobSpec job;
        job.workload = "AlexNet";
        job.batch = 64;
        job.devices = 1;
        cfg.trainingJobs = {job};
        EXPECT_THROW(ServingCluster(cfg, stream), FatalError);
    }
    { // A request larger than the batch cap can never launch.
        ServingConfig cfg;
        cfg.base = base;
        Request big;
        big.arrivalSec = 0.0;
        big.samples = 9;
        EXPECT_THROW(ServingCluster(cfg, {big}), FatalError);
    }
    { // Non-positive SLO.
        ServingConfig cfg;
        cfg.base = base;
        cfg.base.sloMs = 0.0;
        EXPECT_THROW(ServingCluster(cfg, stream), FatalError);
    }
}

// ------------------------------------------------ serving end-to-end

TEST_F(ServingTest, SingleBatchReproducesForwardOnlySessionExactly)
{
    // One 4-sample request on one replica: the serving batch must be
    // the standalone forward-only session, tick for tick.
    Scenario sc;
    sc.design = SystemDesign::McDlaB;
    sc.workload = "VGG-E";
    sc.serve = true;
    sc.replicas = 1;
    sc.globalBatch = 8;

    Request request;
    request.arrivalSec = 0.0;
    request.samples = 4;
    ServingConfig cfg;
    cfg.base = sc;
    ServingCluster serving(cfg, {request});
    const ServingReport report = serving.run();

    ASSERT_EQ(report.completedRequests(), 1u);
    const RequestOutcome &outcome = report.requests[0];
    EXPECT_EQ(outcome.replica, 0);
    EXPECT_EQ(outcome.batchSamples, 4);
    EXPECT_DOUBLE_EQ(outcome.queueSec(), 0.0);

    EventQueue eq;
    System system(eq, sc.config());
    Simulator networks;
    const auto net = networks.network(sc.workload);
    TrainingSession solo(system, *net, ParallelMode::DataParallel, 4,
                         /*pipeline_stages=*/0, /*microbatches=*/1,
                         std::vector<int>{0}, /*forward_only=*/true);
    const IterationResult result = solo.run();

    EXPECT_DOUBLE_EQ(outcome.serviceSec(),
                     ticksToSeconds(result.makespan));
    EXPECT_DOUBLE_EQ(outcome.computeSec, result.breakdown.computeSec);
    EXPECT_DOUBLE_EQ(outcome.pagingSec, result.breakdown.vmemSec);
    // Forward-only still pages: the offload stashes write back.
    EXPECT_GT(outcome.pagingSec, 0.0);
}

TEST_F(ServingTest, ServingRunsAreReproducible)
{
    const auto run = [] {
        Scenario sc;
        sc.design = SystemDesign::McDlaB;
        sc.workload = "ResNet";
        sc.serve = true;
        sc.replicas = 2;
        sc.globalBatch = 8;
        Random rng(5);
        const auto stream =
            synthesizeRequests(48, 1500.0, ArrivalKind::Poisson, rng);
        ServingConfig cfg;
        cfg.base = sc;
        ServingCluster serving(cfg, stream);
        return serving.run();
    };
    const ServingReport a = run();
    const ServingReport b = run();
    ASSERT_EQ(a.requests.size(), b.requests.size());
    EXPECT_DOUBLE_EQ(a.makespanSec, b.makespanSec);
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].replica, b.requests[i].replica);
        EXPECT_DOUBLE_EQ(a.requests[i].doneSec, b.requests[i].doneSec);
    }
}

TEST_F(ServingTest, ContinuousBatchingBeatsStaticOnTheTailAtHighLoad)
{
    Random rng(3);
    const auto stream =
        synthesizeRequests(512, 2000.0, ArrivalKind::Poisson, rng);
    const auto runWith = [&stream](BatchPolicyKind policy) {
        Scenario sc;
        sc.design = SystemDesign::McDlaB;
        sc.workload = "ResNet";
        sc.serve = true;
        sc.replicas = 2;
        sc.globalBatch = 8;
        sc.batchPolicy = policy;
        ServingConfig cfg;
        cfg.base = sc;
        ServingCluster serving(cfg, stream);
        return serving.run();
    };
    const ServingReport fixed = runWith(BatchPolicyKind::Static);
    const ServingReport continuous =
        runWith(BatchPolicyKind::Continuous);
    ASSERT_EQ(fixed.completedRequests(), 512u);
    ASSERT_EQ(continuous.completedRequests(), 512u);
    // Static waits for full batches, so its queueing tail explodes;
    // continuous launches the moment a replica idles.
    EXPECT_LT(continuous.latencyPercentileMs(99.0),
              fixed.latencyPercentileMs(99.0) * 0.5);
    // Continuous coalesces smaller batches by construction.
    EXPECT_LT(continuous.meanBatchSamples(),
              fixed.meanBatchSamples());
}

TEST_F(ServingTest, SloAwareRoutingBeatsQueueDepthUnderCoLocation)
{
    // Near saturation (4 VGG-E replicas at cap 32 serve ~5600 req/s;
    // offer 5300) beside a 4-device data-parallel training job: the
    // gang's paging slows the boundary replicas, and only predictions
    // priced at observed service rates steer traffic away from them.
    Random rng(2);
    const auto stream = synthesizeRequests(2048, 5300.0,
                                           ArrivalKind::Poisson, rng);
    const auto runWith = [&stream](RouterKind router) {
        Scenario sc;
        sc.design = SystemDesign::McDlaB;
        sc.workload = "VGG-E";
        sc.serve = true;
        sc.replicas = 4;
        sc.globalBatch = 32;
        sc.router = router;
        JobSpec job;
        job.workload = "VGG-E";
        job.mode = ParallelMode::DataParallel;
        job.batch = 256;
        job.devices = 4;
        job.iterations = 5;
        ServingConfig cfg;
        cfg.base = sc;
        cfg.trainingJobs = {job};
        ServingCluster serving(cfg, stream);
        return serving.run();
    };
    const ServingReport rr = runWith(RouterKind::RoundRobin);
    const ServingReport ll = runWith(RouterKind::LeastLoaded);
    const ServingReport slo = runWith(RouterKind::SloAware);
    ASSERT_EQ(rr.completedRequests(), 2048u);
    ASSERT_EQ(ll.completedRequests(), 2048u);
    ASSERT_EQ(slo.completedRequests(), 2048u);
    ASSERT_TRUE(slo.trainingJobs[0].completed);

    const double rr_p99 = rr.latencyPercentileMs(99.0);
    const double ll_p99 = ll.latencyPercentileMs(99.0);
    const double slo_p99 = slo.latencyPercentileMs(99.0);
    EXPECT_LT(ll_p99, rr_p99);
    EXPECT_LT(slo_p99, ll_p99);
}

TEST_F(ServingTest, AdmissionControlShedsWhenPredictionsBlowTheSlo)
{
    // A tight SLO under heavy overload (one replica, bursty stream at
    // 4x its service rate): with shedding on, the doomed tail is
    // dropped at the door and the admitted requests keep a bounded
    // queue; with it off, every request completes eventually.
    Random rng(13);
    const auto stream = synthesizeRequests(256, 8000.0,
                                           ArrivalKind::Bursty, rng);
    const auto runWith = [&stream](double grace) {
        Scenario sc;
        sc.design = SystemDesign::McDlaB;
        sc.workload = "VGG-E";
        sc.serve = true;
        sc.replicas = 1;
        sc.globalBatch = 16;
        sc.sloMs = 10.0;
        ServingConfig cfg;
        cfg.base = sc;
        cfg.admitGraceFactor = grace;
        ServingCluster serving(cfg, stream);
        return serving.run();
    };
    const ServingReport open = runWith(0.0);
    EXPECT_EQ(open.droppedRequests(), 0u);
    EXPECT_EQ(open.completedRequests(), 256u);

    const ServingReport shed = runWith(2.0);
    EXPECT_GT(shed.droppedRequests(), 0u);
    EXPECT_EQ(shed.completedRequests() + shed.droppedRequests(), 256u);
    for (const RequestOutcome &outcome : shed.requests)
        if (outcome.dropped) {
            EXPECT_EQ(outcome.replica, -1);
        }
    // Shedding the hopeless tail tightens the served distribution.
    EXPECT_LT(shed.latencyPercentileMs(99.0),
              open.latencyPercentileMs(99.0));
}

// --------------------------------------- report tables and percentiles

TEST_F(ServingTest, ReportTablesCarryTheRunsAccounting)
{
    Random rng(9);
    const auto stream =
        synthesizeRequests(32, 1200.0, ArrivalKind::Poisson, rng);
    Scenario sc;
    sc.design = SystemDesign::McDlaB;
    sc.workload = "AlexNet";
    sc.serve = true;
    sc.replicas = 2;
    sc.globalBatch = 8;
    ServingConfig cfg;
    cfg.base = sc;
    ServingCluster serving(cfg, stream);
    const ServingReport report = serving.run();

    const ResultSet requests = report.requestTable();
    EXPECT_EQ(requests.rowCount(), 32u);
    EXPECT_EQ(requests.columns(), ServingReport::requestColumns());
    const ResultSet replicas = report.replicaTable();
    EXPECT_EQ(replicas.rowCount(), 2u);

    std::int64_t served = 0;
    for (const ReplicaStats &stats : report.replicas) {
        EXPECT_GT(stats.batches, 0);
        EXPECT_GT(stats.ewmaPerSampleSec, 0.0);
        served += stats.samplesServed;
    }
    std::int64_t submitted = 0;
    for (const Request &request : stream)
        submitted += request.samples;
    EXPECT_EQ(served, submitted);
    EXPECT_GT(report.throughputRps(), 0.0);
    EXPECT_GE(report.latencyPercentileMs(99.0),
              report.latencyPercentileMs(50.0));
}

// ------------------------------------------- co-located training jobs

/** An mc-b AlexNet serving machine with a short request stream. */
Scenario
coLocationMachine(int replicas)
{
    Scenario sc;
    sc.design = SystemDesign::McDlaB;
    sc.workload = "AlexNet";
    sc.serve = true;
    sc.replicas = replicas;
    sc.globalBatch = 8;
    return sc;
}

JobSpec
coLocatedJob(const char *workload, std::int64_t batch, int devices)
{
    JobSpec job;
    job.workload = workload;
    job.batch = batch;
    job.devices = devices;
    return job;
}

TEST_F(ServingTest, CoLocatedJobWiderThanTheNonReplicaDevicesIsRejected)
{
    // Two replicas leave six devices: a seven-device job fits the
    // eight-device machine but never the non-replica share.
    Random rng(1);
    ServingConfig cfg;
    cfg.base = coLocationMachine(2);
    cfg.trainingJobs = {coLocatedJob("AlexNet", 64, 7)};
    ServingCluster serving(
        cfg, synthesizeRequests(8, 200.0, ArrivalKind::Poisson, rng));
    const ServingReport report = serving.run();

    ASSERT_EQ(report.trainingJobs.size(), 1u);
    EXPECT_TRUE(report.trainingJobs[0].rejected);
    EXPECT_FALSE(report.trainingJobs[0].completed);
    EXPECT_TRUE(report.trainingJobs[0].devices.empty());
    EXPECT_EQ(report.completedRequests(), 8u);
}

TEST_F(ServingTest, CoLocatedJobThatFitsOnlyAnEmptyPoolIsRejected)
{
    // A 64 GiB pool (one 8 GiB DIMM per memory-node) with one VGG-E
    // replica pinned at max batch 512 (~29 GiB): a two-device VGG-E
    // job at batch 1024 (~58 GiB) fits the empty pool but never
    // beside the pinned block.
    Scenario sc = coLocationMachine(1);
    sc.workload = "VGG-E";
    sc.globalBatch = 512;
    sc.base.memNode.dimm = dimmByCapacityGib(8);
    sc.base.memNode.numDimms = 1;
    Request request;
    request.samples = 1;
    ServingConfig cfg;
    cfg.base = sc;
    cfg.trainingJobs = {coLocatedJob("VGG-E", 1024, 2)};
    ServingCluster serving(cfg, {request});

    Simulator networks;
    const std::uint64_t demand = JobRunner::jobPoolBytes(
        cfg.trainingJobs[0], *networks.network("VGG-E"),
        serving.system().config(),
        serving.system().addressSpace(0).pageBytes());
    const std::uint64_t capacity = serving.poolCapacityBytes();
    ASSERT_EQ(capacity, 64 * kGiB);
    ASSERT_LE(demand, capacity);
    ASSERT_GT(demand + serving.replicaPoolBytes(), capacity);

    const ServingReport report = serving.run();
    ASSERT_EQ(report.trainingJobs.size(), 1u);
    EXPECT_TRUE(report.trainingJobs[0].rejected);
    EXPECT_EQ(report.completedRequests(), 1u);
}

TEST_F(ServingTest, CoLocatedJobsThatCannotOverlapRunBackToBack)
{
    // Four replicas leave devices 4..7: the second job (three devices)
    // waits for the first (four) and starts the tick it finishes.
    const int replicas = 4;
    Random rng(1);
    ServingConfig cfg;
    cfg.base = coLocationMachine(replicas);
    cfg.trainingJobs = {coLocatedJob("AlexNet", 64, 4),
                        coLocatedJob("AlexNet", 48, 3)};
    ServingCluster serving(
        cfg, synthesizeRequests(8, 200.0, ArrivalKind::Poisson, rng));
    const ServingReport report = serving.run();

    ASSERT_EQ(report.trainingJobs.size(), 2u);
    const JobOutcome &first = report.trainingJobs[0];
    const JobOutcome &second = report.trainingJobs[1];
    ASSERT_TRUE(first.completed);
    ASSERT_TRUE(second.completed);
    EXPECT_EQ(first.spec.name, "job0");
    EXPECT_DOUBLE_EQ(first.startSec, 0.0);
    EXPECT_DOUBLE_EQ(second.startSec, first.finishSec);
    EXPECT_GT(second.queueSec(), 0.0);
    for (const JobOutcome &job : report.trainingJobs) {
        EXPECT_EQ(job.devices.size(),
                  static_cast<std::size_t>(job.spec.devices));
        for (int d : job.devices)
            EXPECT_GE(d, replicas);
    }
    EXPECT_EQ(report.completedRequests(), 8u);
}

TEST_F(ServingTest, ClusterJctPercentilesUseTheSharedHelper)
{
    ClusterReport report;
    for (double jct : {1.0, 2.0, 3.0, 4.0}) {
        JobOutcome outcome;
        outcome.completed = true;
        outcome.arrivalSec = 0.0;
        // One second of service each: slowdown == jct numerically.
        outcome.startSec = jct - 1.0;
        outcome.finishSec = jct;
        report.jobs.push_back(outcome);
    }
    EXPECT_DOUBLE_EQ(report.jctPercentileSec(50.0), 2.5);
    EXPECT_DOUBLE_EQ(report.jctPercentileSec(100.0), 4.0);
    EXPECT_DOUBLE_EQ(report.slowdownPercentile(50.0), 2.5);
}

} // anonymous namespace
} // namespace mcdla

