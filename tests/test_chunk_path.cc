/**
 * @file
 * Regression tests for the pooled chunk-forwarding path.
 *
 * This binary replaces the global operator new with a counting one
 * (for this binary only) to pin the allocation behaviour of the
 * collective -> flow -> channel path: a warm ring all-reduce costs a
 * fixed number of allocations per operation, whatever its chunk count.
 * It also pins a warm serving replica batch (a rearmed forward-only
 * session) at a fixed allocation count, whatever the network's layer
 * count, and the channel's in-flight hand-off when a zero-latency
 * delivery handler re-submits to the same channel.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "collective/ring_collective.hh"
#include "core/simulator.hh"
#include "interconnect/channel.hh"
#include "sim/simcheck.hh"
#include "system/system.hh"
#include "system/training_session.hh"

namespace
{

std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t bytes)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(bytes == 0 ? 1 : bytes);
}

} // anonymous namespace

// noinline on both sides: once either is inlined, GCC pairs malloc()
// or free() with the new/delete expression and reports a false
// -Wmismatched-new-delete.

__attribute__((noinline)) void *
operator new(std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

__attribute__((noinline)) void *
operator new[](std::size_t bytes)
{
    return operator new(bytes);
}

__attribute__((noinline)) void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

__attribute__((noinline)) void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

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

namespace mcdla
{
namespace
{

/** Restores the SimCheck toggle on scope exit. */
class SimCheckOn
{
  public:
    SimCheckOn() : _was(simcheck::enabled()) { simcheck::setEnabled(true); }
    ~SimCheckOn() { simcheck::setEnabled(_was); }
    SimCheckOn(const SimCheckOn &) = delete;
    SimCheckOn &operator=(const SimCheckOn &) = delete;

  private:
    bool _was;
};

TEST(ChunkPath, WarmRingAllReduceAllocationsIndependentOfChunkCount)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::McDlaB;
    System sys(eq, cfg);
    CollectiveEngine &engine = sys.collectives();
    ASSERT_GT(engine.ringCount(), 0u);

    // Four chunks per block at 1x, thirty-two at 8x.
    const int stages = sys.fabric().rings().front().stageCount();
    const double one_x = 4.0 * cfg.collectiveChunkBytes * stages
        * static_cast<double>(engine.ringCount());

    auto allocations_of = [&](double bytes) {
        bool done = false;
        const std::uint64_t before = g_allocations.load();
        engine.launch(CollectiveKind::AllReduce, bytes,
                      [&done] { done = true; });
        eq.run();
        const std::uint64_t count = g_allocations.load() - before;
        EXPECT_TRUE(done);
        return count;
    };

    // Warm at the larger size: the event-slot pool, the channel FIFOs
    // and the flow pool reach their high-water marks here.
    (void)allocations_of(8.0 * one_x);
    const std::uint64_t small = allocations_of(one_x);
    const std::uint64_t large = allocations_of(8.0 * one_x);
    EXPECT_EQ(large, small)
        << "allocations grew with the chunk count (" << small
        << " at 1x, " << large << " at 8x)";
    // A per-operation cost only: fewer allocations than the 1x op has
    // chunks (4 per block, one block per stage, on every ring).
    EXPECT_LT(small, 4 * static_cast<std::uint64_t>(stages)
                         * engine.ringCount());
}

TEST(ChunkPath, WarmReplicaBatchAllocationsIndependentOfLayerCount)
{
    // A serving replica's forward-only session, rearmed per batch the
    // way ServingCluster drives it. On the oracle design nothing pages
    // (each DMA still allocates its completion closures), so the count
    // is the session's own per-batch cost: it must not grow with the
    // network's layer count.
    SystemConfig cfg;
    cfg.design = SystemDesign::DcDlaOracle;
    Simulator networks;

    auto warm_batch_allocations = [&](const std::string &workload) {
        EventQueue eq;
        System sys(eq, cfg);
        const auto net = networks.network(workload);
        TrainingSession replica(sys, *net, ParallelMode::DataParallel, 8,
                                /*pipeline_stages=*/0,
                                /*microbatches=*/1, std::vector<int>{0},
                                /*forward_only=*/true);
        auto batch = [&](std::int64_t samples) {
            const std::uint64_t before = g_allocations.load();
            bool done = false;
            replica.rearm(samples);
            replica.startIteration(
                [&done](const IterationResult &) { done = true; });
            eq.run();
            replica.releaseBuffers();
            EXPECT_TRUE(done);
            return g_allocations.load() - before;
        };
        // Warm over both extremes: the event-slot pool, the calendar
        // buckets and the session's per-iteration vectors reach their
        // high-water marks.
        for (int i = 0; i < 4; ++i)
            (void)batch(i % 2 == 0 ? 8 : 1);
        const std::uint64_t small = batch(2);
        const std::uint64_t large = batch(8);
        EXPECT_EQ(small, large)
            << workload << ": allocations grew with the batch";
        return large;
    };

    const auto layers = [&](const std::string &workload) {
        return networks.network(workload)->size();
    };
    ASSERT_GT(layers("ResNet"), 4 * layers("AlexNet"));
    const std::uint64_t alexnet = warm_batch_allocations("AlexNet");
    const std::uint64_t resnet = warm_batch_allocations("ResNet");
    EXPECT_EQ(alexnet, resnet)
        << "a replica batch allocated " << alexnet << " times on "
        << layers("AlexNet") << " layers and " << resnet << " on "
        << layers("ResNet");
    EXPECT_LT(resnet, layers("AlexNet"));
}

TEST(ChunkPath, ZeroLatencyResubmitKeepsFifoOrder)
{
    SimCheckOn simcheck_on;
    EventQueue eq;
    Channel ch(eq, "ch", 1e9, /*latency=*/0);
    const Tick xfer = transferTicks(1000.0, 1e9);

    std::vector<std::string> order;
    std::vector<Tick> at;
    auto note = [&](const char *what) {
        order.emplace_back(what);
        at.push_back(eq.now());
    };

    // "a" re-submits "c" from its delivery handler while "b" waits:
    // "c" must queue behind "b", not jump the in-flight slot.
    ch.submit(1000.0, [&] {
        note("a");
        ch.submit(1000.0, [&] { note("c"); });
    });
    ch.submit(1000.0, [&] { note("b"); });
    eq.run();

    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(at, (std::vector<Tick>{xfer, 2 * xfer, 3 * xfer}));
    EXPECT_DOUBLE_EQ(ch.bytesTransferred(), 3000.0);
    EXPECT_EQ(ch.queueDepth(), 0u);
    ch.simcheckVerifyConservation();
}

TEST(ChunkPath, ZeroLatencySelfResubmitChainHandsOff)
{
    // A lone transfer whose handler re-submits to the now-empty FIFO:
    // the channel is still busy during the handler, so the follow-up
    // starts from the queue when the in-flight slot is released.
    SimCheckOn simcheck_on;
    EventQueue eq;
    Channel ch(eq, "ch", 1e9, /*latency=*/0);
    const Tick xfer = transferTicks(500.0, 1e9);

    std::vector<Tick> delivered;
    std::function<void()> hop = [&] {
        delivered.push_back(eq.now());
        if (delivered.size() < 5)
            ch.submit(500.0, [&] { hop(); });
    };
    ch.submit(500.0, [&] { hop(); });
    eq.run();

    ASSERT_EQ(delivered.size(), 5u);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], static_cast<Tick>(i + 1) * xfer);
    EXPECT_EQ(ch.stats().value("transfers"), 5.0);
    EXPECT_DOUBLE_EQ(ch.stats().value("bytes"), 2500.0);
    ch.simcheckVerifyConservation();
}

} // anonymous namespace
} // namespace mcdla
