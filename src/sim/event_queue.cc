#include "event_queue.hh"

#include <utility>

#include "util/logging.hh"

namespace hcm {
namespace sim {

void
EventQueue::schedule(SimTime when, std::function<void()> action)
{
    hcm_assert(when >= _now - 1e-12, "event scheduled in the past (t=",
               when, ", now=", _now, ")");
    _heap.push(Entry{when, _nextSeq++, std::move(action)});
}

void
EventQueue::runNext()
{
    hcm_assert(!_heap.empty(), "runNext on empty queue");
    // Copy out before pop so the action may schedule further events.
    Entry ev = _heap.top();
    _heap.pop();
    _now = ev.time;
    ++_executed;
    ev.action();
}

} // namespace sim
} // namespace hcm
