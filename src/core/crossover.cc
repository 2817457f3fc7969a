#include "crossover.hh"

#include <algorithm>
#include <limits>

#include "core/projection.hh"
#include "util/math.hh"

namespace hcm {
namespace core {

double
speedupRatio(const Organization &challenger, const Organization &incumbent,
             double f, const Budget &budget, OptimizerOptions opts)
{
    DesignPoint c = optimize(challenger, f, budget, opts);
    DesignPoint i = optimize(incumbent, f, budget, opts);
    if (!c.feasible)
        return 0.0;
    if (!i.feasible)
        return std::numeric_limits<double>::infinity();
    return c.speedup / i.speedup;
}

std::optional<double>
requiredParallelism(dev::DeviceId device, const wl::Workload &w,
                    double target, const itrs::NodeParams &node,
                    const Scenario &scenario)
{
    auto het = heterogeneous(device, w);
    if (!het)
        return std::nullopt;
    // Bisect over the sweep fraction f, with every side optimized at the
    // scenario's effective (org, f).
    AppliedScenario applied = applyScenario(scenario, node, w);
    const Organization challenger = applied.organization(*het);
    const Organization sym = applied.organization(symmetricCmp());
    const Organization asym = applied.organization(asymmetricCmp());

    // "Better of the two CMPs" varies with f: the gap takes the smaller
    // of the two ratios (an infeasible CMP's is +inf).
    auto gap = [&](double f) {
        double f_eff = applied.fraction(f);
        return std::min(speedupRatio(challenger, sym, f_eff,
                                     applied.budget, applied.opts),
                        speedupRatio(challenger, asym, f_eff,
                                     applied.budget, applied.opts)) -
               target;
    };
    double lo = 0.0, hi = 0.9999;
    if (gap(hi) < 0.0)
        return std::nullopt;
    if (gap(lo) >= 0.0)
        return lo;
    return bisect(gap, lo, hi, 1e-5);
}

} // namespace core
} // namespace hcm
