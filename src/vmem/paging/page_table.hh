/**
 * @file
 * PageTable: residency tracking of stashed-tensor page groups in
 * device HBM.
 *
 * Each offloadable stash (one per Offload-class layer) is tracked as
 * one page group with a byte size, a residency state, and the metadata
 * eviction policies need (last touch tick, last-forward-use op). The
 * table accounts resident bytes against a configurable frame capacity
 * — the HBM left over after weights, keep-local stash, and working
 * buffers — but deliberately tolerates overcommit: whether pressure
 * triggers evictions is the pager's (policy-dependent) decision, and
 * the static-plan policy reproduces the original capacity-blind vDNN
 * behavior while the table merely observes occupancy.
 */

#ifndef MCDLA_VMEM_PAGING_PAGE_TABLE_HH
#define MCDLA_VMEM_PAGING_PAGE_TABLE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "dnn/layer.hh"
#include "sim/units.hh"

namespace mcdla
{

/** Residency state of one page group. */
enum class PageState
{
    Invalid,     ///< Not produced yet this iteration (or dead).
    Resident,    ///< In device HBM.
    Evicting,    ///< Writeback DMA in flight; frames free on drain.
    NotResident, ///< Only in the backing store.
    Filling,     ///< Fill DMA in flight; frames already reserved.
};

const char *pageStateName(PageState state);

/** One tracked page group (a layer's stashed tensor). */
struct PageEntry
{
    LayerId layer = invalidLayerId;
    std::uint64_t bytes = 0;       ///< HBM frame footprint.
    PageState state = PageState::Invalid;
    /** Backing store lacks a current copy (set by produce, cleared
        when a writeback drains; stashes are immutable, so a refilled
        copy stays clean). */
    bool dirty = false;
    /** Demanded by the issuing op; never an eviction victim. */
    bool pinned = false;
    Tick lastTouch = 0;
    /** Op index of the stash's last forward use (its plan trigger). */
    std::size_t lastForwardUseOp = 0;
};

/** Residency table plus byte accounting for one device. */
class PageTable
{
  public:
    /**
     * @param capacity HBM bytes available for stash page groups.
     * @param enforce Whether the owning pager evicts under pressure
     *                (false for the capacity-blind static plan).
     */
    PageTable(std::uint64_t capacity, bool enforce)
        : _capacity(capacity), _enforce(enforce)
    {}

    /** Register one page group (once, before the first iteration). */
    void addEntry(LayerId layer, std::uint64_t bytes,
                  std::size_t last_forward_use_op);

    bool has(LayerId layer) const { return _entries.count(layer) != 0; }
    PageEntry &entry(LayerId layer);
    const PageEntry &entry(LayerId layer) const;
    const std::map<LayerId, PageEntry> &entries() const
    {
        return _entries;
    }

    std::uint64_t capacity() const { return _capacity; }
    bool enforcing() const { return _enforce; }
    std::uint64_t usedBytes() const { return _used; }
    std::uint64_t peakUsedBytes() const { return _peakUsed; }
    /** Free frames (0 while overcommitted). */
    std::uint64_t
    freeBytes() const
    {
        return _used >= _capacity ? 0 : _capacity - _used;
    }

    /// @name Residency transitions (byte accounting included)
    /// @{
    /** Invalid -> Resident (dirty): the producing op retired. */
    void produce(LayerId layer, Tick now);
    /** Resident -> Evicting: writeback DMA issued (frames still
        charged until the data has drained out of HBM). */
    void beginEvict(LayerId layer);
    /** Evicting -> NotResident: writeback drained; frames freed. */
    void finishEvict(LayerId layer);
    /** Resident -> NotResident without traffic (clean copy exists). */
    void discard(LayerId layer);
    /** NotResident -> Filling: fill DMA issued; frames reserved. */
    void beginFill(LayerId layer);
    /** Filling -> Resident: fill DMA drained. */
    void finishFill(LayerId layer, Tick now);
    /** Any state -> Invalid: last reader retired; frames freed. */
    void release(LayerId layer);
    /// @}

    /** Refresh the LRU timestamp of a resident page group. */
    void touch(LayerId layer, Tick now);

    /** Page groups currently in Evicting state. */
    int evictionsInFlight() const { return _evicting; }

    /** Frame bytes that will free once in-flight writebacks drain. */
    std::uint64_t evictingBytes() const { return _evictingBytes; }

    /** Page groups currently in Filling state. */
    int fillsInFlight() const { return _filling; }

    /** Reset every entry to Invalid for a new iteration. */
    void resetIteration();

    /**
     * Re-size the table for a new batch: a new frame budget and new
     * group sizes (@p frame_bytes, indexed by group id), every entry
     * reset as by resetIteration(). The registered groups are kept.
     */
    void rearm(std::uint64_t capacity,
               const std::vector<std::uint64_t> &frame_bytes);

    /**
     * SimCheck: frame accounting. Recomputes residency from the
     * entries and panics (SimCheck[page-table]) unless resident +
     * in-transit bytes == usedBytes() and the eviction/fill in-flight
     * counters match. Runs automatically at every residency transition
     * while SimCheck is enabled.
     */
    void simcheckVerify() const;

  private:
    void expect(const PageEntry &e, PageState state,
                const char *transition) const;
    void charge(std::uint64_t bytes);
    void uncharge(std::uint64_t bytes);

    std::uint64_t _capacity;
    bool _enforce;
    std::uint64_t _used = 0;
    std::uint64_t _peakUsed = 0;
    int _evicting = 0;
    std::uint64_t _evictingBytes = 0;
    int _filling = 0;
    std::map<LayerId, PageEntry> _entries;
};

} // namespace mcdla

#endif // MCDLA_VMEM_PAGING_PAGE_TABLE_HH
