/**
 * @file
 * Time-ordered event queue for the discrete-event chip simulator.
 * Events at equal timestamps are delivered in insertion order (a stable
 * tie break keeps simulations deterministic).
 */

#ifndef HCM_SIM_EVENT_QUEUE_HH
#define HCM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace hcm {
namespace sim {

/** Simulated time in seconds (of BCE-normalized execution). */
using SimTime = double;

/** Min-heap of events ordered by (time, insertion sequence). */
class EventQueue
{
  public:
    /** Schedule @p action at absolute time @p when (>= now). */
    void schedule(SimTime when, std::function<void()> action);

    /** Current simulated time (timestamp of the last executed event). */
    SimTime now() const { return _now; }

    /** Execute the next event; advances now(). Panics when empty. */
    void runNext();

    /** Total events executed. */
    std::uint64_t executed() const { return _executed; }

  private:
    struct Entry
    {
        SimTime time = 0.0;
        std::uint64_t seq = 0;
        std::function<void()> action;
    };

    struct Compare
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Compare> _heap;
    SimTime _now = 0.0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
};

} // namespace sim
} // namespace hcm

#endif // HCM_SIM_EVENT_QUEUE_HH
