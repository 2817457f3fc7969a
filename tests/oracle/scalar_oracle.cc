#include "oracle/scalar_oracle.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "amdahl/multicore.hh"
#include "amdahl/pollack.hh"
#include "core/projection.hh"
#include "util/logging.hh"
#include "util/math.hh"

namespace hcm {
namespace core {

namespace {

// The oracle states each organization kind's rules itself, literally,
// instead of reading core::OrgRules: the batch kernel and the shipped
// scalar functions read OrgRules, so comparing them with this file
// checks the rule set against an independent copy.

/** Table 1's parallel rows and area row at r, min'd and classified. */
ParallelBound
boundAtR(const Organization &org, double r, const Budget &budget,
         double alpha)
{
    double n_power = 0.0, n_bw = 0.0, n_thermal = 0.0;
    switch (org.kind) {
      case OrgKind::SymmetricCmp:
        n_power = budget.power / std::pow(r, alpha / 2.0 - 1.0);
        n_bw = budget.bandwidth * std::sqrt(r);
        n_thermal = budget.thermal / std::pow(r, alpha / 2.0 - 1.0);
        break;
      case OrgKind::AsymmetricCmp:
        n_power = budget.power + r;
        n_bw = budget.bandwidth + r;
        n_thermal = budget.thermal + r;
        break;
      case OrgKind::Heterogeneous:
        n_power = budget.power / org.ucore.phi + r;
        n_bw = org.bandwidthExempt
                   ? std::numeric_limits<double>::infinity()
                   : budget.bandwidth / org.ucore.mu + r;
        n_thermal = budget.thermal / org.ucore.phi + r;
        break;
      case OrgKind::DynamicCmp:
        n_power = budget.power;
        n_bw = budget.bandwidth;
        n_thermal = budget.thermal;
        break;
    }
    ParallelBound pb;
    pb.n = std::min({budget.area, n_power, n_bw, n_thermal});
    pb.limiter = classifyLimiter(budget.area, n_power, n_bw, n_thermal);
    return pb;
}

/** AsymCMP and HET need n - r headroom once there is parallel work. */
bool
needsHeadroom(const Organization &org, double f)
{
    if (f <= 0.0)
        return false;
    return org.kind == OrgKind::AsymmetricCmp ||
           org.kind == OrgKind::Heterogeneous;
}

/** The Section 2.1 / 3.3 speedup formulas, by kind. */
double
speedupAt(const Organization &org, double f, double r, double n)
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

/** Serial plus parallel phase energy of design (r, n), by kind. */
EnergyBreakdown
energyAt(const Organization &org, double f, double r, double n,
         double alpha)
{
    EnergyBreakdown e;
    double serial_perf = org.kind == OrgKind::DynamicCmp
                             ? model::perfSeq(n)
                             : model::perfSeq(r);
    e.serial = (1.0 - f) / serial_perf *
               model::powerForPerf(serial_perf, alpha);
    if (f <= 0.0)
        return e;
    switch (org.kind) {
      case OrgKind::SymmetricCmp: {
        double perf_par = (n / r) * model::perfSeq(r);
        double power_par = n * std::pow(r, alpha / 2.0 - 1.0);
        e.parallel = f / perf_par * power_par;
        break;
      }
      case OrgKind::AsymmetricCmp:
      case OrgKind::DynamicCmp:
        // BCEs at power 1 and perf 1 each.
        e.parallel = f;
        break;
      case OrgKind::Heterogeneous:
        e.parallel = f * org.ucore.phi / org.ucore.mu;
        break;
    }
    return e;
}

/** Evaluate a candidate r; nullopt when the design cannot be built. */
std::optional<DesignPoint>
evaluateAtR(const Organization &org, double f, double r,
            const Budget &budget, const OptimizerOptions &opts)
{
    ParallelBound pb = boundAtR(org, r, budget, opts.alpha);
    double n = pb.n;
    if (n < r)
        return std::nullopt; // the sequential core alone overflows a bound
    if (needsHeadroom(org, f) && n - r < kMinParallelHeadroom)
        return std::nullopt;

    DesignPoint dp;
    dp.f = f;
    dp.r = r;
    dp.n = n;
    dp.limiter = pb.limiter;
    dp.speedup = speedupAt(org, f, r, n);
    dp.energy = energyAt(org, f, r, n, opts.alpha);
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
