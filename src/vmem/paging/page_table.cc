/**
 * @file
 * PageTable implementation.
 */

#include "vmem/paging/page_table.hh"

#include "sim/logging.hh"
#include "sim/simcheck.hh"

namespace mcdla
{

const char *
pageStateName(PageState state)
{
    switch (state) {
      case PageState::Invalid: return "invalid";
      case PageState::Resident: return "resident";
      case PageState::Evicting: return "evicting";
      case PageState::NotResident: return "not-resident";
      case PageState::Filling: return "filling";
    }
    return "unknown";
}

void
PageTable::addEntry(LayerId layer, std::uint64_t bytes,
                    std::size_t last_forward_use_op)
{
    if (_entries.count(layer))
        panic("page group for layer %d registered twice", layer);
    PageEntry e;
    e.layer = layer;
    e.bytes = bytes;
    e.lastForwardUseOp = last_forward_use_op;
    _entries.emplace(layer, e);
}

PageEntry &
PageTable::entry(LayerId layer)
{
    auto it = _entries.find(layer);
    if (it == _entries.end())
        panic("layer %d has no page group", layer);
    return it->second;
}

const PageEntry &
PageTable::entry(LayerId layer) const
{
    auto it = _entries.find(layer);
    if (it == _entries.end())
        panic("layer %d has no page group", layer);
    return it->second;
}

void
PageTable::expect(const PageEntry &e, PageState state,
                  const char *transition) const
{
    if (e.state == state)
        return;
    // A frame-state transition from the wrong state is how double
    // mappings (filling an already-resident group) and stale-residency
    // bugs begin; under SimCheck it carries the subsystem label.
    if (simcheck::enabled())
        simcheck::failUntimed(
            "page-table",
            "page group of layer %d is %s; %s requires %s", e.layer,
            pageStateName(e.state), transition, pageStateName(state));
    panic("page group of layer %d is %s; %s requires %s", e.layer,
          pageStateName(e.state), transition, pageStateName(state));
}

void
PageTable::charge(std::uint64_t bytes)
{
    _used += bytes;
    if (_used > _peakUsed)
        _peakUsed = _used;
}

void
PageTable::uncharge(std::uint64_t bytes)
{
    if (bytes > _used)
        panic("page table accounting underflow (%llu < %llu)",
              static_cast<unsigned long long>(_used),
              static_cast<unsigned long long>(bytes));
    _used -= bytes;
}

void
PageTable::produce(LayerId layer, Tick now)
{
    PageEntry &e = entry(layer);
    expect(e, PageState::Invalid, "produce");
    e.state = PageState::Resident;
    e.dirty = true;
    e.lastTouch = now;
    charge(e.bytes);
    if (simcheck::enabled())
        simcheckVerify();
}

void
PageTable::beginEvict(LayerId layer)
{
    PageEntry &e = entry(layer);
    expect(e, PageState::Resident, "beginEvict");
    e.state = PageState::Evicting;
    ++_evicting;
    _evictingBytes += e.bytes;
    if (simcheck::enabled())
        simcheckVerify();
}

void
PageTable::finishEvict(LayerId layer)
{
    PageEntry &e = entry(layer);
    expect(e, PageState::Evicting, "finishEvict");
    e.state = PageState::NotResident;
    e.dirty = false;
    --_evicting;
    _evictingBytes -= e.bytes;
    uncharge(e.bytes);
    if (simcheck::enabled())
        simcheckVerify();
}

void
PageTable::discard(LayerId layer)
{
    PageEntry &e = entry(layer);
    expect(e, PageState::Resident, "discard");
    if (e.dirty)
        panic("discarding dirty page group of layer %d", layer);
    e.state = PageState::NotResident;
    uncharge(e.bytes);
    if (simcheck::enabled())
        simcheckVerify();
}

void
PageTable::beginFill(LayerId layer)
{
    PageEntry &e = entry(layer);
    expect(e, PageState::NotResident, "beginFill");
    e.state = PageState::Filling;
    ++_filling;
    charge(e.bytes);
    if (simcheck::enabled())
        simcheckVerify();
}

void
PageTable::finishFill(LayerId layer, Tick now)
{
    PageEntry &e = entry(layer);
    expect(e, PageState::Filling, "finishFill");
    e.state = PageState::Resident;
    --_filling;
    e.lastTouch = now;
    if (simcheck::enabled())
        simcheckVerify();
}

void
PageTable::release(LayerId layer)
{
    PageEntry &e = entry(layer);
    if (e.state == PageState::Filling)
        --_filling;
    if (e.state == PageState::Resident || e.state == PageState::Filling)
        uncharge(e.bytes);
    else if (e.state == PageState::Evicting)
        panic("releasing layer %d while its writeback is in flight",
              layer);
    e.state = PageState::Invalid;
    e.dirty = false;
    e.pinned = false;
    if (simcheck::enabled())
        simcheckVerify();
}

void
PageTable::touch(LayerId layer, Tick now)
{
    entry(layer).lastTouch = now;
}

void
PageTable::simcheckVerify() const
{
    // Recompute residency from the entries themselves: resident pages
    // (plus in-transit frames, which stay charged) must equal the
    // frames used, and no frame may be charged twice — each entry is
    // counted exactly once by construction, so a mismatch means a
    // transition charged or uncharged out of step with its state.
    std::uint64_t charged = 0;
    int evicting = 0;
    int filling = 0;
    std::uint64_t evicting_bytes = 0;
    for (const auto &[layer, e] : _entries) {
        (void)layer;
        switch (e.state) {
          case PageState::Resident:
            charged += e.bytes;
            break;
          case PageState::Evicting:
            charged += e.bytes;
            ++evicting;
            evicting_bytes += e.bytes;
            break;
          case PageState::Filling:
            charged += e.bytes;
            ++filling;
            break;
          case PageState::Invalid:
          case PageState::NotResident:
            break;
        }
    }
    if (charged != _used)
        simcheck::failUntimed(
            "page-table",
            "resident+in-transit page groups hold %llu bytes but %llu "
            "frame bytes are charged (double-mapped or leaked frames)",
            static_cast<unsigned long long>(charged),
            static_cast<unsigned long long>(_used));
    if (evicting != _evicting || evicting_bytes != _evictingBytes)
        simcheck::failUntimed(
            "page-table",
            "%d evictions (%llu bytes) in flight but counters say %d "
            "(%llu bytes)",
            evicting, static_cast<unsigned long long>(evicting_bytes),
            _evicting,
            static_cast<unsigned long long>(_evictingBytes));
    if (filling != _filling)
        simcheck::failUntimed(
            "page-table",
            "%d fills in flight but the counter says %d", filling,
            _filling);
}

void
PageTable::resetIteration()
{
    for (auto &[layer, e] : _entries) {
        (void)layer;
        e.state = PageState::Invalid;
        e.dirty = false;
        e.pinned = false;
        e.lastTouch = 0;
    }
    _used = 0;
    _peakUsed = 0;
    _evicting = 0;
    _evictingBytes = 0;
    _filling = 0;
}

void
PageTable::rearm(std::uint64_t capacity,
                 const std::vector<std::uint64_t> &frame_bytes)
{
    _capacity = capacity;
    for (auto &[layer, e] : _entries)
        e.bytes = frame_bytes.at(static_cast<std::size_t>(layer));
    resetIteration();
}

} // namespace mcdla
