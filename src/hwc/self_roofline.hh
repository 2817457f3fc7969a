/**
 * @file
 * The measured self-roofline: the paper's Section 5 methodology turned
 * on the reproduction itself. measureSelfRoofline() calibrates the
 * host's two ceilings with the machine-probe microkernels, then runs
 * the model's hot loops — the optimizer's r-grid sweep and a dense
 * projection slice — each between two reads of one hardware-counter
 * group, and places each on the machine roofline: attained Gins/s
 * against arithmetic intensity (retired instructions per LLC-miss
 * byte). The chart answers the
 * question the modeled `hcm roofline` table cannot: is *this code* on
 * *this host* compute-bound or memory-bound, and how far under the
 * ceiling does it run?
 *
 * Degradation: without hardware counters the ceilings that need only a
 * wall clock (stream bandwidth, FP peak) are still measured and
 * reported, hot loops are still timed, and the report says explicitly
 * that placement is unavailable — never a roofline of fabricated
 * zeros.
 */

#ifndef HCM_HWC_SELF_ROOFLINE_HH
#define HCM_HWC_SELF_ROOFLINE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "hwc/machine_probe.hh"
#include "hwc/perf_counters.hh"

namespace hcm {
namespace hwc {

/** Knobs (tests shrink everything; defaults suit CI). */
struct SelfRooflineOptions
{
    /** Machine-ceiling probe configuration. */
    ProbeOptions probe;
    /** Minimum wall time per hot-loop measurement, seconds. */
    double loopMinSeconds = 0.2;
};

/** One hot loop placed on (or timed beneath) the roofline. */
struct RooflinePoint
{
    std::string name;
    /** Loop repetitions performed inside the measured window. */
    std::uint64_t iterations = 0;
    double seconds = 0.0;
    /** True when the counter columns below are real measurements. */
    bool measured = false;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t llcLoads = 0;
    std::uint64_t llcMisses = 0;
    bool hasLlc = false;

    /** Attained instruction throughput (0 when not measured). */
    double
    insPerSec() const
    {
        return measured && seconds > 0.0
                   ? static_cast<double>(instructions) / seconds
                   : 0.0;
    }

    double
    ipc() const
    {
        return measured && cycles > 0
                   ? static_cast<double>(instructions) /
                         static_cast<double>(cycles)
                   : 0.0;
    }

    double
    llcMissRate() const
    {
        return hasLlc && llcLoads > 0
                   ? static_cast<double>(llcMisses) /
                         static_cast<double>(llcLoads)
                   : 0.0;
    }

    /**
     * Arithmetic intensity with retired instructions as the ops proxy:
     * instructions per byte of LLC-miss traffic (64-byte lines).
     * 0 when counters or the LLC pair are unavailable; when the loop
     * misses *nothing* the intensity is effectively infinite, clamped
     * by callers to the chart's right edge.
     */
    double
    intensity() const
    {
        return hasLlc && llcMisses > 0
                   ? static_cast<double>(instructions) /
                         (static_cast<double>(llcMisses) * 64.0)
                   : 0.0;
    }
};

/** Everything `hcm roofline --measured` renders and exports. */
struct SelfRooflineReport
{
    MachineCeilings machine;
    Availability counters;
    std::vector<RooflinePoint> points;

    /** True when at least one point can be placed on the chart. */
    bool placeable() const;
};

/**
 * Calibrate the host ceilings and measure the hot loops, each loop
 * bracketed by its own counter group, so callers need no setup. On
 * hosts without perf events the report comes back with
 * counters.available == false and wall-time-only points.
 */
SelfRooflineReport measureSelfRoofline(
    const SelfRooflineOptions &opts = {});

/** Export @p report as JSON (schema "hcm-self-roofline/v1"). */
void writeSelfRooflineJson(const SelfRooflineReport &report,
                           std::ostream &out);

/**
 * Render the report for a terminal: ceilings summary, per-loop table,
 * and — when placement is possible — a log-log ascii roofline with the
 * hot loops plotted under the measured ceilings.
 */
std::string renderSelfRoofline(const SelfRooflineReport &report);

} // namespace hwc
} // namespace hcm

#endif // HCM_HWC_SELF_ROOFLINE_HH
