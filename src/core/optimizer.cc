#include "optimizer.hh"

#include <algorithm>
#include <cmath>

#include "amdahl/multicore.hh"
#include "core/optimizer_batch.hh"
#include "util/logging.hh"

namespace hcm {
namespace core {

/** Dynamic CMP: no independent r; n takes the tightest of all bounds. */
DesignPoint
optimizeDynamicCmp(const Organization &org, double f, const Budget &budget,
                   const OptimizerOptions &opts)
{
    DesignPoint dp;
    dp.f = f;
    // Parallel rows (n BCEs active) and serial rows (one sqrt(n) core).
    DynamicForm form;
    ParallelRows rows = form.budgetRows(budget);
    rows.power = std::min(rows.power,
                          model::maxSerialRForPower(budget.power, opts.alpha));
    rows.bandwidth = std::min(
        rows.bandwidth, model::maxSerialRForBandwidth(budget.bandwidth));
    rows.thermal = std::min(
        rows.thermal, model::maxSerialRForPower(budget.thermal, opts.alpha));
    ParallelBound pb = parallelBound(budget.area, rows);
    if (pb.n < 1.0)
        return dp; // infeasible
    dp.limiter = pb.limiter;
    dp.r = pb.n;
    dp.n = pb.n;
    dp.speedup = form.speedup(f, pb.n, pb.n);
    dp.energy = designEnergy(org, f, pb.n, pb.n, opts.alpha);
    dp.feasible = true;
    return dp;
}

void
rCandidateGridInto(double cap, std::vector<double> &candidates)
{
    candidates.clear();
    // A NaN cap fails every comparison: without this guard it would
    // skip the `cap < 1` rejection AND produce an empty grid whose
    // back() we then read — reject it explicitly.
    if (std::isnan(cap) || cap < 1.0)
        return;
    // Non-finite and absurd caps (a bandwidth-exempt organization under
    // an unbounded budget reaching here past opts.rMax) previously
    // looped and allocated without bound; clamp to the documented
    // ceiling instead of enumerating a budget.
    double clamped = std::min(cap, kMaxRGridCap);
    double top = std::floor(clamped);
    for (double r = 1.0; r <= top; r += 1.0)
        candidates.push_back(r);
    if (clamped > candidates.back())
        candidates.push_back(clamped);
}

std::vector<double>
rCandidateGrid(double cap)
{
    std::vector<double> candidates;
    rCandidateGridInto(cap, candidates);
    return candidates;
}

double
evaluateSpeedup(const Organization &org, double f, double r, double n)
{
    return OrgRules(org).speedup(f, r, n);
}

DesignPoint
optimize(const Organization &org, double f, const Budget &budget,
         OptimizerOptions opts)
{
    hcm_assert(f >= 0.0 && f <= 1.0, "fraction outside [0,1]");
    // Route through the SoA batch kernel (which hands the dynamic CMP to
    // optimizeDynamicCmp). The scratch evaluator is reused across calls
    // so steady-state single-shot optimization never allocates; results
    // are bit-identical to the scalar oracle.
    thread_local BatchEvaluator scratch;
    scratch.assign(org, budget, opts);
    return scratch.best(f);
}

} // namespace core
} // namespace hcm
