/**
 * @file
 * Discrete-event chip simulator. Executes a TaskGraph on a Machine:
 * serial phases run on the sequential core; parallel phases are bags of
 * chunks list-scheduled onto tiles. Off-chip bandwidth is a shared
 * processor-sharing resource — when the active tiles' aggregate traffic
 * demand exceeds capacity, every tile is throttled by the same factor,
 * and completion events are rescheduled whenever the active set changes
 * (stale events are invalidated by a generation counter).
 *
 * Time is in BCE-seconds of a unit program, so a program of total work
 * 1.0 yields speedup = 1 / totalTime — directly comparable with the
 * analytical model. The simulator exists to validate that model and to
 * quantify what its idealizations (infinitely divisible work, perfect
 * scheduling, free phase transitions) hide.
 */

#ifndef HCM_SIM_SIMULATOR_HH
#define HCM_SIM_SIMULATOR_HH

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/machine.hh"
#include "sim/task.hh"

namespace hcm {
namespace sim {

/** Results of one simulation. */
struct SimStats
{
    double totalTime = 0.0;    ///< simulated seconds
    double serialTime = 0.0;   ///< time in serial phases
    double parallelTime = 0.0; ///< time in parallel phases
    double energy = 0.0;       ///< BCE energy units (active power x time)
    double busyTileTime = 0.0; ///< sum over tiles of busy seconds
    /** Peak instantaneous traffic demand before throttling. */
    double peakBandwidthDemand = 0.0;
    /** Time-averaged delivered traffic during parallel phases. */
    double avgBandwidthUse = 0.0;
    std::uint64_t events = 0;  ///< events executed
    std::uint64_t chunksRun = 0;

    /** Speedup vs one BCE for a program of work @p total_work. */
    double
    speedup(double total_work) const
    {
        return total_work / totalTime;
    }

    /** Average tile utilization during parallel time, in [0, 1]. */
    double tileUtilization(std::size_t tiles) const;
};

/** How parallel chunks are mapped onto tiles. */
enum class Schedule {
    /** Idle tiles pull the next chunk from a shared bag (work
     *  stealing's effect without the mechanism) — the paper's
     *  "perfectly scheduled" assumption, up to chunk granularity. */
    DynamicGreedy,
    /** Chunks are pre-partitioned contiguously across tiles (static
     *  blocking, OpenMP `schedule(static)` style); imbalanced bags
     *  leave tiles idle while stragglers finish. */
    StaticBlock,
};

/** The simulator itself. */
class ChipSimulator
{
  public:
    explicit ChipSimulator(Machine machine,
                           Schedule schedule = Schedule::DynamicGreedy);

    /** Execute @p program to completion and return the statistics. */
    SimStats run(const TaskGraph &program);

  private:
    void runSerial(const Phase &phase, EventQueue &queue,
                   SimStats &stats);
    void runParallel(const Phase &phase, EventQueue &queue,
                     SimStats &stats);

    Machine _machine;
    Schedule _schedule;
};

} // namespace sim
} // namespace hcm

#endif // HCM_SIM_SIMULATOR_HH
