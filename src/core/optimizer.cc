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
    double n_power = std::min(budget.power,
                              model::maxSerialRForPower(budget.power,
                                                        opts.alpha));
    double n_bw = std::min(budget.bandwidth,
                           model::maxSerialRForBandwidth(budget.bandwidth));
    double n_thermal = std::min(budget.thermal,
                                model::maxSerialRForPower(budget.thermal,
                                                          opts.alpha));
    double n = std::min({budget.area, n_power, n_bw, n_thermal});
    if (n < 1.0)
        return dp; // infeasible
    dp.limiter = classifyLimiter(budget.area, n_power, n_bw, n_thermal);
    dp.r = n;
    dp.n = n;
    dp.speedup = model::speedupDynamic(f, n);
    dp.energy = designEnergy(org, f, n, n, opts.alpha);
    dp.feasible = true;
    return dp;
}

bool
needsParallelHeadroom(const Organization &org, double f)
{
    if (f <= 0.0)
        return false;
    return org.kind == OrgKind::AsymmetricCmp ||
           org.kind == OrgKind::Heterogeneous;
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
    switch (org.kind) {
      case OrgKind::SymmetricCmp:
        return model::speedupSymmetric(f, n, r);
      case OrgKind::AsymmetricCmp:
        if (f <= 0.0)
            return model::perfSeq(r);
        return model::speedupAsymmetricOffload(f, n, r);
      case OrgKind::Heterogeneous:
        if (f <= 0.0)
            return model::perfSeq(r);
        return model::speedupHeterogeneous(f, n, r, org.ucore.mu);
      case OrgKind::DynamicCmp:
        return model::speedupDynamic(f, n);
    }
    hcm_panic("bad organization kind");
}

DesignPoint
optimize(const Organization &org, double f, const Budget &budget,
         OptimizerOptions opts)
{
    hcm_assert(f >= 0.0 && f <= 1.0, "fraction outside [0,1]");
    if (org.kind == OrgKind::DynamicCmp) {
        budget.check();
        return optimizeDynamicCmp(org, f, budget, opts);
    }
    // Route through the SoA batch kernel. The scratch evaluator is
    // reused across calls so steady-state single-shot optimization
    // never allocates; results are bit-identical to the scalar oracle.
    thread_local BatchEvaluator scratch;
    scratch.assign(org, budget, opts);
    return scratch.best(f);
}

} // namespace core
} // namespace hcm
