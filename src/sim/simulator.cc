#include "simulator.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace hcm {
namespace sim {

namespace {

constexpr double kEps = 1e-12;

/** Process-wide simulator counters (shared by every ChipSimulator). */
struct SimCounters
{
    obs::Counter &runs;
    obs::Counter &events;
    obs::Counter &chunks;
    obs::Counter &serialPhases;
    obs::Counter &parallelPhases;

    static SimCounters &
    instance()
    {
        static SimCounters counters{
            obs::globalRegistry().counter("hcm_sim_runs_total"),
            obs::globalRegistry().counter("hcm_sim_events_total"),
            obs::globalRegistry().counter("hcm_sim_chunks_total"),
            obs::globalRegistry().counter("hcm_sim_phases_total",
                                          {{"kind", "serial"}}),
            obs::globalRegistry().counter("hcm_sim_phases_total",
                                          {{"kind", "parallel"}}),
        };
        return counters;
    }
};

} // namespace

double
SimStats::tileUtilization(std::size_t tiles) const
{
    if (parallelTime <= 0.0 || tiles == 0)
        return 0.0;
    return busyTileTime / (parallelTime * static_cast<double>(tiles));
}

ChipSimulator::ChipSimulator(Machine machine, Schedule schedule)
    : _machine(machine), _schedule(schedule)
{
    _machine.check();
}

SimStats
ChipSimulator::run(const TaskGraph &program)
{
    obs::Span run_scope("sim.run", "sim");
    run_scope.arg("phases", program.phases().size());
    run_scope.arg("tiles", _machine.tiles);
    SimStats stats;
    EventQueue queue;
    for (const Phase &phase : program.phases()) {
        if (phase.work <= 0.0)
            continue;
        if (phase.kind == PhaseKind::Serial)
            runSerial(phase, queue, stats);
        else
            runParallel(phase, queue, stats);
    }
    stats.totalTime = queue.now();
    stats.events = queue.executed();
    if (stats.parallelTime > 0.0)
        stats.avgBandwidthUse /= stats.parallelTime;
    SimCounters &counters = SimCounters::instance();
    counters.runs.add(1);
    counters.events.add(stats.events);
    counters.chunks.add(stats.chunksRun);
    run_scope.arg("events", stats.events);
    hcm_debug("sim run complete", logField("events", stats.events),
              logField("simTime", stats.totalTime),
              logField("chunks", stats.chunksRun));
    return stats;
}

void
ChipSimulator::runSerial(const Phase &phase, EventQueue &queue,
                         SimStats &stats)
{
    obs::Span phase_scope("sim.phase", "sim");
    phase_scope.arg("kind", "serial");
    phase_scope.arg("work", phase.work);
    SimCounters::instance().serialPhases.add(1);
    // The core's traffic demand equals its delivered performance; it is
    // throttled when it alone exceeds the pipe (the serial bandwidth
    // bound r <= B^2 in Table 1).
    double rate = std::min(_machine.serialPerf, _machine.bandwidth);
    double duration = phase.work / rate;
    bool done = false;
    queue.schedule(queue.now() + duration, [&done] { done = true; });
    while (!done)
        queue.runNext();
    stats.serialTime += duration;
    stats.energy += duration * _machine.serialPower;
}

void
ChipSimulator::runParallel(const Phase &phase, EventQueue &queue,
                           SimStats &stats)
{
    obs::Span phase_scope("sim.phase", "sim");
    phase_scope.arg("kind", "parallel");
    phase_scope.arg("work", phase.work);
    phase_scope.arg("chunks", phase.chunks);
    SimCounters::instance().parallelPhases.add(1);
    // A bag of chunks scheduled onto tiles. All active tiles progress
    // at a common rate (identical tiles sharing one bandwidth
    // throttle), so the simulation advances completion-to-completion;
    // rates are re-evaluated whenever the active set changes.
    std::size_t tiles = _machine.tiles;

    // Per-tile private queues (StaticBlock) or one shared bag
    // (DynamicGreedy): modeled uniformly as queues indexed by tile,
    // with dynamic mode using queue 0 for everyone.
    std::size_t nqueues = _schedule == Schedule::StaticBlock ? tiles : 1;
    std::vector<std::deque<double>> queues(nqueues);
    for (std::size_t c = 0; c < phase.chunks; ++c) {
        std::size_t q = _schedule == Schedule::StaticBlock
                            ? c * tiles / phase.chunks
                            : 0;
        queues[q].push_back(phase.chunkWork(c));
    }

    // Busy tiles: remaining work and (for static) the owning queue.
    struct Running
    {
        double remaining;
        std::size_t queueIdx;
    };
    std::vector<Running> active;
    active.reserve(tiles);
    std::vector<bool> tile_busy(nqueues, false); // per queue, static only

    double phase_start = queue.now();
    double last_update = queue.now();
    double current_rate = 0.0;
    bool phase_done = false;

    auto perTileRate = [&]() {
        double demand =
            static_cast<double>(active.size()) * _machine.tilePerf;
        stats.peakBandwidthDemand =
            std::max(stats.peakBandwidthDemand, demand);
        if (demand <= _machine.bandwidth)
            return _machine.tilePerf;
        return _machine.tilePerf * (_machine.bandwidth / demand);
    };

    // Advance per-tile accounting from the last state change to now.
    auto settle = [&]() {
        double dt = queue.now() - last_update;
        if (dt <= 0.0)
            return;
        for (Running &run : active)
            run.remaining = std::max(0.0,
                                     run.remaining - current_rate * dt);
        double count = static_cast<double>(active.size());
        stats.energy += dt * count * _machine.tilePower;
        stats.busyTileTime += dt * count;
        stats.avgBandwidthUse +=
            dt * std::min(count * _machine.tilePerf, _machine.bandwidth);
        last_update = queue.now();
    };

    // Start runnable chunks: dynamic mode feeds any idle tile from the
    // shared bag; static mode lets each tile take only from its own.
    auto fill = [&]() {
        if (_schedule == Schedule::DynamicGreedy) {
            while (active.size() < tiles && !queues[0].empty()) {
                active.push_back(Running{queues[0].front(), 0});
                queues[0].pop_front();
            }
        } else {
            for (std::size_t q = 0; q < nqueues; ++q) {
                if (tile_busy[q] || queues[q].empty())
                    continue;
                active.push_back(Running{queues[q].front(), q});
                queues[q].pop_front();
                tile_busy[q] = true;
            }
        }
    };

    std::function<void()> schedule_next = [&]() {
        fill();
        if (active.empty()) {
            phase_done = true;
            return;
        }
        current_rate = perTileRate();
        double next = active.front().remaining;
        for (const Running &run : active)
            next = std::min(next, run.remaining);
        queue.schedule(queue.now() + next / current_rate, [&]() {
            settle();
            std::size_t before = active.size();
            for (const Running &run : active)
                if (run.remaining <= kEps &&
                    _schedule == Schedule::StaticBlock)
                    tile_busy[run.queueIdx] = false;
            active.erase(std::remove_if(active.begin(), active.end(),
                                        [](const Running &run) {
                                            return run.remaining <= kEps;
                                        }),
                         active.end());
            stats.chunksRun += before - active.size();
            schedule_next();
        });
    };

    schedule_next();
    while (!phase_done)
        queue.runNext();
    stats.parallelTime += queue.now() - phase_start;
}

} // namespace sim
} // namespace hcm
