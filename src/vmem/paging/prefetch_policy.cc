/**
 * @file
 * PrefetchPolicy implementations.
 */

#include "vmem/paging/prefetch_policy.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "vmem/paging/pager.hh"

namespace mcdla
{

// ------------------------------------------------------- static plan

void
StaticPlanPrefetcher::opRetired(DevicePager &pager, std::size_t op)
{
    for (LayerId layer : pager.schedule()[op].planWritebacks)
        pager.planWriteback(layer);
}

void
StaticPlanPrefetcher::frontierAdvanced(DevicePager &pager,
                                       std::size_t op)
{
    const PagingSchedule &schedule = pager.schedule();
    const std::size_t end =
        std::min(op + pager.config().lookahead, schedule.size());
    for (std::size_t i = op; i < end; ++i)
        for (LayerId layer : schedule[i].reads)
            pager.requestFill(layer, false);
}

// ----------------------------------------------------------- history

void
HistoryPrefetcher::forget()
{
    _recording = true;
    _history.clear();
    _cursor = 0;
}

void
HistoryPrefetcher::beginIteration(DevicePager &pager)
{
    (void)pager;
    // Record until a sequence exists: keying off "history empty"
    // rather than an iteration counter keeps the policy learning
    // through warmup iterations that generated no stash accesses.
    _recording = _history.empty();
    _cursor = 0;
}

void
HistoryPrefetcher::accessed(DevicePager &pager, LayerId layer)
{
    if (_recording) {
        _history.push_back(layer);
        return;
    }
    // Steady state: sync the cursor to this access's position in the
    // recorded sequence, then run ahead of it. The scan wraps: a group
    // re-accessed at an earlier position (a re-fault after eviction, or
    // a stash read twice per iteration) must rewind the cursor, or
    // prefetching silently issues from the wrong position — or stops
    // entirely once the cursor runs off the end.
    const std::size_t n = _history.size();
    for (std::size_t step = 0; step < n; ++step) {
        const std::size_t i = (_cursor + step) % n;
        if (_history[i] == layer) {
            _cursor = i + 1;
            break;
        }
    }
    const std::size_t end = std::min(
        _cursor + pager.config().lookahead, n);
    for (std::size_t i = _cursor; i < end; ++i)
        pager.requestFill(_history[i], false);
}

// ----------------------------------------------------------- factory

std::unique_ptr<PrefetchPolicy>
makePrefetchPolicy(PrefetchPolicyKind kind)
{
    switch (kind) {
      case PrefetchPolicyKind::StaticPlan:
        return std::make_unique<StaticPlanPrefetcher>();
      case PrefetchPolicyKind::OnDemand:
        return std::make_unique<OnDemandPager>();
      case PrefetchPolicyKind::History:
        return std::make_unique<HistoryPrefetcher>();
    }
    panic("unknown prefetch policy kind %d", static_cast<int>(kind));
}

} // namespace mcdla
