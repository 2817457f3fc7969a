/**
 * @file
 * Parallel design-space sweep engine. Decomposes a SweepSpec into
 * deterministic work units — one per (workload, fraction, scenario,
 * organization), each covering the full Table 6 node table — and
 * executes them on a svc::ThreadPool. Budgets depend only on (node,
 * workload, scenario), so they are derived once per combination and
 * shared read-only by every unit; each unit writes a preassigned slot,
 * so results assemble in canonical spec order no matter which worker
 * finishes first. With jobs == 1 the units run inline on the calling
 * thread — the exact serial projectAll() path — so serial and parallel
 * output are byte-identical by construction.
 *
 * Instrumented with obs spans (sweep.run, sweep.unit), the
 * hcm_sweep_units_total counter, and the hcm_sweep_active_units gauge;
 * the worker pool's own queue-depth gauge covers scheduling pressure.
 */

#ifndef HCM_SWEEP_SWEEP_HH
#define HCM_SWEEP_SWEEP_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/projection.hh"
#include "sweep/spec.hh"

namespace hcm {
namespace sweep {

/** One node's evaluation inside a sweep row. */
struct SweepCell
{
    itrs::NodeParams node;
    core::Budget budget;       ///< shared per (node, workload, scenario)
    core::DesignPoint design;
    /** Figure 10's metric; 0 when the design is infeasible. */
    double energyNormalized = 0.0;
};

/** One work unit's output: an organization's line across the nodes. */
struct SweepRow
{
    std::string workload;
    double f = 0.0;
    std::string scenario;
    std::string organization;
    int paperIndex = -1;
    std::vector<SweepCell> cells; ///< node-table order
};

/** A completed sweep, rows in canonical spec order. */
struct SweepResult
{
    std::vector<SweepRow> rows;
    std::size_t units = 0; ///< work units executed (== rows.size())
    std::size_t jobs = 1;  ///< worker threads actually used
};

/** Execution knobs for runSweep(). */
struct SweepOptions
{
    /** Worker threads; 0 selects hardware concurrency, 1 runs inline. */
    std::size_t jobs = 0;
    /**
     * Called after each completed unit with (done, total). Invocations
     * are serialized under a mutex, so the callback may write to a
     * stream without further locking; done is strictly increasing.
     */
    std::function<void(std::size_t done, std::size_t total)> progress;
};

/**
 * Run the full cross product of @p spec. Throws std::invalid_argument
 * when the spec has an empty dimension; rethrows the first evaluation
 * error after every in-flight unit has drained.
 */
SweepResult runSweep(const SweepSpec &spec, const SweepOptions &opts = {});

/**
 * The serial reference for one (workload, f, scenario) slice: the same
 * rows built from core::projectAll(). `hcm project --csv` and the CI
 * smoke diff use this as the ground truth the parallel engine must
 * reproduce byte-for-byte.
 */
SweepResult projectionReference(
    const wl::Workload &w, double f, const core::Scenario &scenario,
    core::OptimizerOptions opts = {},
    const core::BceCalibration &calib = core::BceCalibration::standard());

} // namespace sweep
} // namespace hcm

#endif // HCM_SWEEP_SWEEP_HH
