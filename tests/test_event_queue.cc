/**
 * @file
 * Event-queue ordering and slot-pool regression tests.
 *
 * The queue must produce the *exact* global (when, seq) event order —
 * not merely the same final state — because the determinism audit
 * hashes the executed (tick, label) stream. The fuzzer here drives it
 * through randomized schedule/cancel/weak workloads (same-tick bursts,
 * dense ranges, sparse jumps that force the calendar's year scan and
 * resize machinery) and pins each seed's outcome to values a 4-ary
 * heap and the calendar queue produced identically.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/profiler.hh"
#include "sim/random.hh"

namespace mcdla
{
namespace
{

/** Outcome summary of one randomized run. */
struct FuzzResult
{
    std::uint64_t streamHash = 0;
    std::uint64_t executed = 0;
    std::uint64_t descheduled = 0;
    std::uint64_t weakFired = 0;
    Tick finalNow = 0;
};

/** Self-scheduling randomized workload over one EventQueue. */
class Fuzzer
{
  public:
    explicit Fuzzer(std::uint64_t seed) : _rng(seed)
    {
        _eq.setProfiler(&_prof);
    }

    FuzzResult
    run()
    {
        // A weak heartbeat that reschedules itself unconditionally:
        // it must fire while ordinary events exist and be discarded
        // (not executed) the moment only weak events remain.
        scheduleHeartbeat();
        spawn(64);
        _eq.run();
        EXPECT_EQ(_eq.weakCount(), 0u);
        EXPECT_EQ(_eq.pendingCount(), 0u);
        FuzzResult result;
        result.streamHash = _prof.streamHash();
        result.executed = _eq.executedCount();
        result.descheduled = _descheduled;
        result.weakFired = _weakFired;
        result.finalNow = _eq.now();
        return result;
    }

  private:
    void
    scheduleHeartbeat()
    {
        _eq.scheduleWeak(_eq.now() + 1000,
                         [this] {
                             ++_weakFired;
                             scheduleHeartbeat();
                         },
                         "heartbeat");
    }

    static const char *
    labelFor(std::uint64_t pick)
    {
        static const char *const kLabels[] = {"alpha", "beta", "gamma",
                                              "delta"};
        return kLabels[pick & 3];
    }

    /** Tick offsets span four regimes so the calendar queue exercises
        same-bucket FIFO, dense buckets, resizes, and the sparse
        year-scan fallback. */
    Tick
    randomDelta()
    {
        switch (_rng.below(10)) {
          case 0:
            return 0; // same-tick burst: FIFO order must hold
          case 1:
          case 2:
          case 3:
          case 4:
          case 5:
          case 6:
            return static_cast<Tick>(_rng.between(1, 256));
          case 7:
          case 8:
            return static_cast<Tick>(_rng.between(1, 100000));
          default:
            // Sparse jump: empties a calendar "year".
            return static_cast<Tick>(_rng.between(10000000, 500000000));
        }
    }

    void
    spawn(std::uint64_t fanout)
    {
        for (std::uint64_t i = 0; i < fanout && _budget > 0; ++i) {
            --_budget;
            const EventId id =
                _eq.schedule(_eq.now() + randomDelta(),
                             [this] { step(); },
                             labelFor(_rng.next()));
            _ids.push_back(id);
        }
    }

    void
    step()
    {
        // Cancel a random earlier handle now and then; many are stale
        // (already executed or cancelled) and must be refused — the
        // refusal pattern is part of the pinned outcome.
        if (!_ids.empty() && _rng.below(4) == 0) {
            const EventId victim =
                _ids[static_cast<std::size_t>(_rng.below(_ids.size()))];
            if (_eq.deschedule(victim))
                ++_descheduled;
        }
        spawn(_rng.below(4));
    }

    EventQueue _eq;
    DesProfiler _prof;
    Random _rng;
    std::uint64_t _budget = 20000;
    std::vector<EventId> _ids;
    std::uint64_t _descheduled = 0;
    std::uint64_t _weakFired = 0;
};

TEST(EventQueueFuzz, StreamsMatchRecordedOrder)
{
    // Recorded with the heap and calendar backends agreeing on every
    // field; any change to (when, seq) ordering, same-tick FIFO,
    // tombstones, stale-id refusal or weak-event discard moves them.
    const FuzzResult expected[] = {
        {0x5470ed713d8b9fa9ull, 518694, 1118, 499812, 499812382},
        {0x96e32023f227aa5full, 517787, 1180, 498967, 498967640},
        {0xf01cbcbcb6e12099ull, 518462, 1165, 499627, 499627650},
        {0x223d87d52306f8a1ull, 518576, 1104, 499680, 499680531},
        {0x071a33c475820e60ull, 518347, 1150, 499497, 499497115},
    };
    std::uint64_t seed = 1;
    for (const FuzzResult &want : expected) {
        const FuzzResult got = Fuzzer(seed).run();
        EXPECT_EQ(got.streamHash, want.streamHash) << "seed " << seed;
        EXPECT_EQ(got.executed, want.executed) << "seed " << seed;
        EXPECT_EQ(got.descheduled, want.descheduled) << "seed " << seed;
        EXPECT_EQ(got.weakFired, want.weakFired) << "seed " << seed;
        EXPECT_EQ(got.finalNow, want.finalNow) << "seed " << seed;
        ++seed;
    }
}

// ------------------------------------------------------------ slot pool

TEST(EventQueuePool, PoolStaysFlatAcrossDrainsAndResets)
{
    EventQueue eq;
    const auto burst = [&eq] {
        for (Tick i = 0; i < 100; ++i)
            eq.scheduleAfter(i, [] {});
        eq.run();
    };
    // Warm the pool to its high-water mark.
    for (int round = 0; round < 10; ++round)
        burst();
    const std::size_t high_water = eq.poolSlots();
    EXPECT_LE(high_water, 128u); // ~peak concurrency, not event count
    // Long drains recycle slots through the free list...
    for (int round = 0; round < 200; ++round)
        burst();
    EXPECT_EQ(eq.poolSlots(), high_water);
    // ...and reset() releases into the same pool rather than growing.
    for (int round = 0; round < 200; ++round) {
        for (Tick i = 0; i < 50; ++i)
            eq.scheduleAfter(100 + i, [] {});
        eq.runUntil(120);
        eq.reset();
    }
    EXPECT_EQ(eq.poolSlots(), high_water);
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueuePool, DescheduleOfExecutedIdIsRefused)
{
    EventQueue eq;
    int fired = 0;
    const EventId executed = eq.schedule(10, [&fired] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    // The slot retired at pop time: the stale handle is refused...
    EXPECT_FALSE(eq.deschedule(executed));
    // ...even after the slot is recycled by a new event (the bumped
    // generation keeps the stale id from aliasing its successor).
    const EventId successor = eq.schedule(20, [&fired] { ++fired; });
    EXPECT_FALSE(eq.deschedule(executed));
    EXPECT_TRUE(eq.deschedule(successor));
    EXPECT_FALSE(eq.deschedule(successor)); // already cancelled
    eq.run();
    EXPECT_EQ(fired, 1);
}

} // anonymous namespace
} // namespace mcdla
