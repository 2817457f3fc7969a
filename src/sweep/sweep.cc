#include "sweep.hh"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/optimizer_batch.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "svc/thread_pool.hh"
#include "util/logging.hh"

namespace hcm {
namespace sweep {

namespace {

/**
 * Everything f-independent about one (workload, scenario), built once
 * and read by its units from every worker thread: the scenario applied
 * at each node, and the SoA tables indexed [org * nodes + node] (Table
 * 1 bounds, limiter classification, the serial-power pow() table).
 * best(f) is const and allocation-free, so one table serves the whole
 * f-grid.
 */
struct Tables
{
    std::vector<core::AppliedScenario> applied;
    std::vector<core::BatchEvaluator> evaluators;
};

/** One schedulable unit: everything it reads outlives the pool. The
 *  unit's index is its row's index. */
struct Unit
{
    double f = 0.0;
    const Tables *tables = nullptr;
    std::size_t orgIndex = 0;
};

/** Completion bookkeeping shared by the workers and the caller. */
struct Progress
{
    std::mutex mu;
    std::size_t done = 0;
    std::exception_ptr firstError;
};

void
validate(const SweepSpec &spec)
{
    if (spec.workloads.empty())
        throw std::invalid_argument("sweep: workload list is empty");
    if (spec.fractions.empty())
        throw std::invalid_argument("sweep: fraction list is empty");
    if (spec.scenarios.empty())
        throw std::invalid_argument("sweep: scenario list is empty");
    for (double f : spec.fractions)
        if (f < 0.0 || f > 1.0)
            throw std::invalid_argument(
                "sweep: fraction outside [0, 1]");
}

/** Evaluate one unit into @p row (pure: no shared mutable state). */
void
evaluateUnit(const Unit &unit, SweepRow &row)
{
    obs::Span scope("sweep.unit", "sweep");
    scope.arg("workload", row.workload);
    scope.arg("f", row.f);
    scope.arg("scenario", row.scenario);
    scope.arg("organization", row.organization);

    const std::vector<itrs::NodeParams> &nodes = itrs::nodeTable();
    // The effective model fraction; the matching effective organization
    // was baked into the shared evaluator tables.
    const Tables &tables = *unit.tables;
    double f_eff = tables.applied.front().fraction(unit.f);
    row.cells.clear();
    row.cells.reserve(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        SweepCell cell;
        cell.node = nodes[i];
        cell.budget = tables.applied[i].budget;
        // Shared table lookup: the f-independent work (bounds, limiter
        // classification, pow) was done once in runSweep's evaluator
        // pass and is amortized over the whole fraction grid. Results
        // are bit-identical to core::optimize on (org, budget, opts).
        cell.design =
            tables.evaluators[unit.orgIndex * nodes.size() + i].best(f_eff);
        cell.energyNormalized =
            cell.design.feasible
                ? core::normalizedEnergy(
                      cell.design.energy,
                      cell.node.relPowerPerTransistor)
                : 0.0;
        row.cells.push_back(cell);
    }
}

/** Run @p unit with instrumentation and completion accounting. */
void
runUnit(const Unit &unit, SweepRow &row, Progress &progress,
        std::size_t total, const SweepOptions &opts)
{
    static obs::Counter &units_total =
        obs::globalRegistry().counter("hcm_sweep_units_total");
    static obs::Gauge &active =
        obs::globalRegistry().gauge("hcm_sweep_active_units");
    active.add(1);
    try {
        evaluateUnit(unit, row);
    } catch (...) {
        std::lock_guard<std::mutex> lock(progress.mu);
        if (!progress.firstError)
            progress.firstError = std::current_exception();
    }
    active.add(-1);
    units_total.add(1);
    std::lock_guard<std::mutex> lock(progress.mu);
    ++progress.done;
    if (opts.progress)
        opts.progress(progress.done, total);
}

} // namespace

SweepResult
runSweep(const SweepSpec &spec, const SweepOptions &opts)
{
    validate(spec);

    // Shared read-only inputs, derived once: the organization list per
    // workload and the Tables per (workload, scenario).
    const std::vector<itrs::NodeParams> &nodes = itrs::nodeTable();
    std::vector<std::vector<core::Organization>> orgs;
    orgs.reserve(spec.workloads.size());
    for (const wl::Workload &w : spec.workloads)
        orgs.push_back(core::paperOrganizations(w, spec.calib));
    std::vector<Tables> tables(spec.workloads.size() *
                               spec.scenarios.size());
    for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
        for (std::size_t si = 0; si < spec.scenarios.size(); ++si) {
            Tables &t = tables[wi * spec.scenarios.size() + si];
            for (const itrs::NodeParams &node : nodes)
                t.applied.push_back(
                    core::applyScenario(spec.scenarios[si], node,
                                        spec.workloads[wi], spec.opts,
                                        spec.calib));
            t.evaluators.resize(orgs[wi].size() * nodes.size());
            for (std::size_t oi = 0; oi < orgs[wi].size(); ++oi) {
                // The segment reduction does not depend on the node.
                core::Organization eff =
                    t.applied.front().organization(orgs[wi][oi]);
                for (std::size_t ni = 0; ni < nodes.size(); ++ni)
                    t.evaluators[oi * nodes.size() + ni].assign(
                        eff, t.applied[ni].budget, t.applied[ni].opts);
            }
        }
    }

    // Canonical decomposition: one unit per (workload, f, scenario,
    // organization), row index == unit index.
    std::vector<Unit> units;
    SweepResult result;
    for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
        std::string workload_name = spec.workloads[wi].name();
        for (double f : spec.fractions) {
            for (std::size_t si = 0; si < spec.scenarios.size(); ++si) {
                for (std::size_t oi = 0; oi < orgs[wi].size(); ++oi) {
                    const core::Organization &org = orgs[wi][oi];
                    units.push_back(
                        {f, &tables[wi * spec.scenarios.size() + si], oi});
                    SweepRow row;
                    row.workload = workload_name;
                    row.f = f;
                    row.scenario = spec.scenarios[si].name;
                    row.organization = org.name;
                    row.paperIndex = org.paperIndex;
                    result.rows.push_back(std::move(row));
                }
            }
        }
    }

    std::size_t jobs = opts.jobs > 0
                           ? opts.jobs
                           : std::max(1u,
                                      std::thread::hardware_concurrency());
    obs::Span run_scope("sweep.run", "sweep");
    run_scope.arg("units", units.size());
    run_scope.arg("jobs", jobs);

    Progress progress;
    if (jobs == 1) {
        // Inline serial path: identical code, no pool — `--jobs 1`
        // output is the byte-for-byte reference.
        for (std::size_t i = 0; i < units.size(); ++i)
            runUnit(units[i], result.rows[i], progress, units.size(),
                    opts);
    } else {
        // Units are a few microseconds each, so submitting them
        // one-per-task would spend comparable time in the pool's queue.
        // Chunk contiguous blocks — enough per worker for load balance,
        // few enough that scheduling cost amortizes away. Determinism
        // is untouched: every unit still writes its preassigned row.
        std::size_t total = units.size();
        std::size_t blocks = std::min(total, jobs * 8);
        std::size_t per_block = (total + blocks - 1) / blocks;
        // The pool destructor drains every queued task before joining,
        // so pool scope exit is the completion barrier; the joins
        // publish each worker's row writes to this thread. `units` and
        // `result` are declared before the pool, so they outlive it.
        svc::ThreadPool pool(jobs);
        for (std::size_t begin = 0; begin < total; begin += per_block) {
            std::size_t end = std::min(begin + per_block, total);
            bool accepted = pool.submit([&units, &result, &progress,
                                         &opts, begin, end, total] {
                for (std::size_t i = begin; i < end; ++i)
                    runUnit(units[i], result.rows[i], progress, total,
                            opts);
            });
            hcm_assert(accepted, "sweep pool rejected a unit block");
        }
    }

    if (progress.firstError)
        std::rethrow_exception(progress.firstError);
    result.units = units.size();
    result.jobs = jobs;
    return result;
}

SweepResult
projectionReference(const wl::Workload &w, double f,
                    const core::Scenario &scenario,
                    core::OptimizerOptions opts,
                    const core::BceCalibration &calib)
{
    SweepResult result;
    for (const core::ProjectionSeries &series :
         core::projectAll(w, f, scenario, opts, calib)) {
        SweepRow row;
        row.workload = w.name();
        row.f = f;
        row.scenario = scenario.name;
        row.organization = series.org.name;
        row.paperIndex = series.org.paperIndex;
        row.cells.reserve(series.points.size());
        for (const core::NodePoint &pt : series.points) {
            SweepCell cell;
            cell.node = pt.node;
            cell.budget = pt.budget;
            cell.design = pt.design;
            cell.energyNormalized =
                pt.design.feasible ? pt.energyNormalized() : 0.0;
            row.cells.push_back(cell);
        }
        result.rows.push_back(std::move(row));
    }
    result.units = result.rows.size();
    result.jobs = 1;
    return result;
}

} // namespace sweep
} // namespace hcm
