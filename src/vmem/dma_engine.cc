/**
 * @file
 * DmaEngine implementation.
 */

#include "vmem/dma_engine.hh"

#include "sim/causal.hh"
#include "sim/logging.hh"

namespace mcdla
{

namespace
{

/** Pooled join of one transfer's per-path flows (thread-local free
    list, same ownership discipline as the flow layer's FlowState). */
struct DmaJoin
{
    std::size_t remaining = 0;
    DmaEngine::Handler done;
};

struct DmaJoinPool
{
    std::vector<std::unique_ptr<DmaJoin>> all;
    std::vector<DmaJoin *> free;

    DmaJoin *
    acquire()
    {
        if (!free.empty()) {
            DmaJoin *join = free.back();
            free.pop_back();
            return join;
        }
        all.push_back(std::make_unique<DmaJoin>());
        return all.back().get();
    }

    void
    release(DmaJoin *join)
    {
        join->done = nullptr;
        free.push_back(join);
    }
};

DmaJoinPool &
dmaJoinPool()
{
    thread_local DmaJoinPool pool;
    return pool;
}

} // anonymous namespace

DmaEngine::DmaEngine(EventQueue &eq, std::string name,
                     const std::vector<VmemPath> &paths,
                     double chunk_bytes)
    : SimObject(eq, std::move(name)), _paths(paths),
      _chunkBytes(chunk_bytes),
      _statOffloaded(stats().scalar("bytes_offloaded",
                                    "devicelocal -> backing store")),
      _statPrefetched(stats().scalar("bytes_prefetched",
                                     "backing store -> devicelocal")),
      _statTransfers(stats().scalar("transfers", "DMA operations issued"))
{
    if (_chunkBytes <= 0.0)
        fatal("dma engine '%s': chunk size must be positive",
              this->name().c_str());
}

void
DmaEngine::transfer(double bytes, DmaDirection direction,
                    const std::vector<double> &fractions, Handler on_done)
{
    if (!hasBackingStore())
        fatal("dma engine '%s': transfer without a backing store",
              name().c_str());
    // Paging/virtualization traffic: degenerate completions and the
    // chunk submissions below are DMA-subsystem edges; the channel
    // hops they fan into inherit the context.
    CausalScope causal_scope(eventQueue().causalRecorder(),
                             WaitKind::Dma, CausalCtx::Dma, name());
    if (bytes <= 0.0) {
        eventQueue().scheduleAfter(
            0, std::move(on_done),
            EventLabel::dotted(name(), "empty_dma"));
        return;
    }
    if (!fractions.empty() && fractions.size() != _paths.size())
        panic("dma engine '%s': %zu fractions for %zu paths",
              name().c_str(), fractions.size(), _paths.size());

    ++_statTransfers;
    if (direction == DmaDirection::LocalToRemote) {
        _bytesOffloaded += bytes;
        _statOffloaded += bytes;
    } else {
        _bytesPrefetched += bytes;
        _statPrefetched += bytes;
    }

    // Count the active shares first so the completion join is exact.
    std::size_t active = 0;
    for (std::size_t i = 0; i < _paths.size(); ++i) {
        const double f = fractions.empty()
            ? 1.0 / static_cast<double>(_paths.size())
            : fractions[i];
        if (f > 0.0)
            ++active;
    }
    if (active == 0) {
        eventQueue().scheduleAfter(
            0, std::move(on_done),
            EventLabel::dotted(name(), "zero_fraction_dma"));
        return;
    }

    DmaJoin *join = dmaJoinPool().acquire();
    join->remaining = active;
    join->done = std::move(on_done);
    for (std::size_t i = 0; i < _paths.size(); ++i) {
        const double f = fractions.empty()
            ? 1.0 / static_cast<double>(_paths.size())
            : fractions[i];
        if (f <= 0.0)
            continue;
        const auto &routes = direction == DmaDirection::LocalToRemote
            ? _paths[i].writeRoutes
            : _paths[i].readRoutes;
        sendFlow(routes, bytes * f, _chunkBytes, [join] {
            if (--join->remaining != 0)
                return;
            // Detach and recycle before firing: the completion may
            // issue the next DMA and reuse this join immediately.
            DmaEngine::Handler done = std::move(join->done);
            dmaJoinPool().release(join);
            if (done)
                done();
        });
    }
}

} // namespace mcdla
