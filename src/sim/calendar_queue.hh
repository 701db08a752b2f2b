/**
 * @file
 * The DES kernel's priority structure: a Brown-style calendar queue.
 *
 * The EventQueue stores event payloads (callback, label, flags) in a
 * slot pool and keeps only POD EventItem keys — (when, seq, slot) — in
 * this structure, which orders 20-byte keys and never touches
 * payloads. Push/pop are O(1) amortized when event ticks are roughly
 * uniform — the common case for bandwidth-driven simulations — and
 * the pop order is the exact global (when, seq) order, so same-tick
 * FIFO holds and the determinism-audit stream hash is that order's.
 */

#ifndef MCDLA_SIM_CALENDAR_QUEUE_HH
#define MCDLA_SIM_CALENDAR_QUEUE_HH

#include <cstdint>
#include <vector>

#include "units.hh"

namespace mcdla
{

/** Priority-structure key for one pending event: payload lives in the
 *  EventQueue's slot pool, indexed by @c slot. Ordered by (when, seq):
 *  seq is globally unique and increasing, giving same-tick FIFO. */
struct EventItem
{
    Tick when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
};

/** True when @p a fires strictly before @p b. */
inline bool
eventItemBefore(const EventItem &a, const EventItem &b)
{
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
}

/**
 * Brown's calendar queue: a power-of-two array of tick-hashed buckets,
 * each a small vector kept sorted descending (minimum at the back).
 * An item lands in bucket (when / width) & mask; pop scans one "year"
 * of buckets starting from the last popped tick and falls back to a
 * global minimum scan when the year is empty (sparse regions). The
 * bucket count doubles/halves with occupancy and the width is resized
 * to the mean inter-event gap, keeping ~O(1) items per bucket.
 *
 * Same-tick events always hash to the same bucket and buckets are
 * ordered by (when, seq), so the global pop order is exact, not
 * approximate.
 *
 * Contract: peek() and pop() must not be called on an empty queue;
 * pushed items are never earlier than the last popped item (the
 * kernel clamps past-tick schedules to now() first).
 */
class CalendarQueue
{
  public:
    CalendarQueue();

    void push(const EventItem &item);

    /** The minimum item. Precondition: !empty(). */
    const EventItem &
    peek() const
    {
        if (_minBucket == SIZE_MAX)
            _minBucket = findMinBucket();
        return _buckets[_minBucket].back();
    }

    /** Remove and return the minimum item. Precondition: !empty(). */
    EventItem pop();

    bool empty() const { return _count == 0; }
    std::size_t size() const { return _count; }
    void clear();

  private:
    std::size_t bucketOf(Tick when) const
    {
        return static_cast<std::size_t>(
                   static_cast<std::uint64_t>(when) / _width)
               & _mask;
    }

    /** Locate the minimum item: bucket index, or SIZE_MAX when empty. */
    std::size_t findMinBucket() const;
    void resize(std::size_t nbuckets);

    static constexpr std::size_t kMinBuckets = 16;

    /** The first _mask + 1 buckets are active; any beyond stay empty
        so their storage is reused when the calendar grows again. */
    std::vector<std::vector<EventItem>> _buckets;
    std::vector<EventItem> _resizeScratch;
    std::size_t _mask = 0;       ///< bucket count - 1 (power of two)
    std::uint64_t _width = 1;    ///< bucket tick width (>= 1)
    std::size_t _count = 0;      ///< total pending items
    Tick _lastWhen = 0;          ///< last popped tick (scan start)
    /** Cached result of the last peek()'s search, reused by pop(). */
    mutable std::size_t _minBucket = SIZE_MAX;
};

} // namespace mcdla

#endif // MCDLA_SIM_CALENDAR_QUEUE_HH
