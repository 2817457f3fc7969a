#include "oracle/scalar_oracle.hh"

#include <algorithm>
#include <optional>

#include "core/projection.hh"
#include "util/logging.hh"
#include "util/math.hh"

namespace hcm {
namespace core {

namespace {

/** Evaluate a candidate r; nullopt when the design cannot be built. */
std::optional<DesignPoint>
evaluateAtR(const Organization &org, double f, double r,
            const Budget &budget, const OptimizerOptions &opts)
{
    ParallelBound pb = parallelBound(org, r, budget, opts.alpha);
    double n = pb.n;
    if (n < r)
        return std::nullopt; // the sequential core alone overflows a bound
    if (needsParallelHeadroom(org, f) && n - r < kMinParallelHeadroom)
        return std::nullopt;

    DesignPoint dp;
    dp.f = f;
    dp.r = r;
    dp.n = n;
    dp.limiter = pb.limiter;
    dp.speedup = evaluateSpeedup(org, f, r, n);
    dp.energy = designEnergy(org, f, r, n, opts.alpha);
    dp.feasible = true;
    return dp;
}

/** True when @p candidate beats @p best under the chosen objective. */
bool
better(const DesignPoint &candidate, const DesignPoint &best,
       Objective objective)
{
    if (!best.feasible)
        return true;
    if (objective == Objective::MaxSpeedup)
        return candidate.speedup > best.speedup;
    return candidate.energy.total() < best.energy.total();
}

} // namespace

DesignPoint
optimizeScalar(const Organization &org, double f, const Budget &budget,
               OptimizerOptions opts)
{
    hcm_assert(f >= 0.0 && f <= 1.0, "fraction outside [0,1]");
    budget.check();
    if (org.isHet())
        org.ucore.check();

    if (org.kind == OrgKind::DynamicCmp)
        return optimizeDynamicCmp(org, f, budget, opts);

    DesignPoint best;
    best.f = f;

    double cap = std::min(opts.rMax, serialRCap(budget, opts.alpha));
    std::vector<double> candidates = rCandidateGrid(cap);
    if (candidates.empty())
        return best; // even a single-BCE core violates the serial bounds

    std::size_t best_idx = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        auto dp = evaluateAtR(org, f, candidates[i], budget, opts);
        if (dp && better(*dp, best, opts.objective)) {
            best = *dp;
            best_idx = i;
        }
    }

    if (opts.continuousR && best.feasible) {
        auto objective_value = [&](double r) {
            auto dp = evaluateAtR(org, f, r, budget, opts);
            if (!dp)
                return -1e300;
            return opts.objective == Objective::MaxSpeedup
                       ? dp->speedup
                       : -dp->energy.total();
        };
        // Bracket the golden-section search to the grid neighborhood of
        // the discrete argmax. The objective carries a -1e300 plateau
        // wherever the candidate is infeasible, which violates the
        // unimodality contract: a [1, cap] bracket whose initial probes
        // both land on the plateau walks INTO it and converges there,
        // silently discarding the refinement (see the regression test).
        // Between the argmax's grid neighbors the feasible region is a
        // single interval, so the contract holds.
        double lo = candidates[best_idx > 0 ? best_idx - 1 : 0];
        double hi = candidates[std::min(best_idx + 1,
                                        candidates.size() - 1)];
        if (hi > lo) {
            double r_star = goldenMax(objective_value, lo, hi, 1e-6);
            auto dp = evaluateAtR(org, f, r_star, budget, opts);
            if (dp && better(*dp, best, opts.objective))
                best = *dp;
        }
    }
    return best;
}

std::vector<ParetoPoint>
enumerateDesignsScalar(const wl::Workload &w, double f,
                       const itrs::NodeParams &node,
                       const Scenario &scenario, OptimizerOptions opts,
                       const BceCalibration &calib)
{
    AppliedScenario applied = applyScenario(scenario, node, w, opts, calib);
    double cap = std::min(applied.opts.rMax,
                          serialRCap(applied.budget, applied.opts.alpha));
    std::vector<double> candidates = rCandidateGrid(cap);
    double f_eff = applied.fraction(f);

    std::vector<ParetoPoint> points;
    for (const Organization &org : paperOrganizations(w, calib)) {
        Organization eff = applied.organization(org);
        for (double r : candidates) {
            auto dp = evaluateAtR(eff, f_eff, r, applied.budget,
                                  applied.opts);
            if (!dp)
                continue;
            points.push_back(
                {org.name, org.paperIndex, *dp,
                 normalizedEnergy(dp->energy, node.relPowerPerTransistor)});
        }
    }
    return points;
}

} // namespace core
} // namespace hcm
