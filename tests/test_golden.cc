/**
 * @file
 * Golden (tick, label) event-stream hashes.
 *
 * Each case re-runs one `mcdla_sim --audit-determinism` scenario at
 * default settings and compares the DesProfiler stream digest with a
 * checked-in value. The determinism audit only compares two fresh runs
 * with each other; these goldens pin the stream itself, so a refactor
 * that silently reorders, adds or drops an event fails here. A change
 * that moves the stream on purpose updates the table below, with a
 * CHANGES.md line saying what moved and why.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/mcdla.hh"
#include "core/options.hh"

namespace mcdla
{
namespace
{

/** One checked-in golden: mcdla_sim arguments and the stream hash. */
struct Golden
{
    const char *name;
    std::vector<const char *> args;
    bool cluster;
    std::uint64_t hash;
};

/** The scenario mcdla_sim would build from @p args. */
Scenario
scenarioFor(const std::vector<const char *> &args)
{
    OptionParser opts("test_golden", "golden stream hashes");
    Scenario::addOptions(opts);
    std::vector<const char *> argv{"test_golden"};
    argv.insert(argv.end(), args.begin(), args.end());
    std::ostringstream err;
    EXPECT_TRUE(opts.parse(static_cast<int>(argv.size()), argv.data(),
                           err))
        << err.str();
    return Scenario::fromOptions(opts);
}

/**
 * Run the scenario once with a profiler attached and return its
 * stream hash. Mirrors mcdla_sim's audit run under its option
 * defaults: 8 synthetic jobs at 25 jobs/s, fifo scheduler, first-fit
 * allocator and first placement for --cluster; first-fit for --serve.
 */
std::uint64_t
streamHash(const Golden &golden)
{
    const Scenario prototype = scenarioFor(golden.args);
    DesProfiler profiler;
    if (prototype.serve) {
        ServingConfig cfg;
        cfg.base = prototype;
        cfg.profiler = &profiler;
        Random rng(prototype.seed);
        ServingCluster serving(
            cfg, synthesizeRequests(static_cast<int>(prototype.requests),
                                    prototype.requestRate,
                                    prototype.arrivals, rng));
        (void)serving.run();
    } else if (golden.cluster) {
        ClusterConfig cfg;
        cfg.base = prototype;
        cfg.profiler = &profiler;
        Random rng(prototype.seed);
        Cluster cluster(
            cfg, synthesizeJobs(8, 25.0,
                                prototype.base.fabric.numDevices, rng));
        (void)cluster.run();
    } else {
        Simulator sim;
        Simulator::Hooks hooks;
        hooks.profiler = &profiler;
        (void)sim.run(prototype, hooks);
    }
    return profiler.streamHash();
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream os;
    os << std::hex << value;
    return os.str();
}

class GoldenStream : public ::testing::TestWithParam<Golden>
{
  protected:
    void SetUp() override { LogConfig::verbose = false; }
};

TEST_P(GoldenStream, MatchesCheckedInHash)
{
    EXPECT_EQ(hex(streamHash(GetParam())), hex(GetParam().hash));
}

const Golden kGoldens[] = {
    {"dp", {}, false, 0xf4f825d3c809d518ULL},
    {"mp_alexnet", {"--mode", "mp", "--workload", "AlexNet"}, false,
     0xca2201c1cfdb7909ULL},
    {"pp", {"--mode", "pp"}, false, 0x52a498e1877b4e6eULL},
    {"cluster_8jobs", {}, true, 0xa2be7f68658f3aa5ULL},
    {"serve", {"--serve"}, false, 0xdd0f2a29774e88eeULL},
    {"tree", {"--collective", "tree"}, false, 0x232144b683530cf1ULL},
    {"hierarchical_16dev",
     {"--collective", "hierarchical", "--devices", "16"}, false,
     0x7cdb5f5fab29db3aULL},
};

std::string
goldenName(const ::testing::TestParamInfo<Golden> &param)
{
    return param.param.name;
}

INSTANTIATE_TEST_SUITE_P(AuditModes, GoldenStream,
                         ::testing::ValuesIn(kGoldens), goldenName);

} // anonymous namespace
} // namespace mcdla
