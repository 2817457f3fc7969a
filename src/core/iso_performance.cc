#include "iso_performance.hh"

#include <cmath>

#include "amdahl/pollack.hh"
#include "core/org_rules.hh"
#include "util/logging.hh"

namespace hcm {
namespace core {

IsoPerformanceResult
matchBaselinePerformance(const Organization &het,
                         const DesignPoint &baseline, double f,
                         const Budget &budget, OptimizerOptions opts)
{
    hcm_assert(het.kind == OrgKind::Heterogeneous,
               "iso-performance matching needs a heterogeneous chip");
    hcm_assert(baseline.feasible, "baseline design is infeasible");
    hcm_assert(f > 0.0 && f < 1.0, "need both phases for the trade");
    het.ucore.check();

    IsoPerformanceResult res;
    res.targetSpeedup = baseline.speedup;
    res.baselineSerialPower = model::powerSeq(baseline.r, opts.alpha);
    res.baselineEnergy = baseline.energy.total();

    // Size the fabric as the speedup-optimal design would (same r, so
    // the comparison isolates the serial slowdown).
    DesignPoint het_design = optimize(het, f, budget, opts);
    if (!het_design.feasible)
        return res;
    // The design's fabric as its rules state it: tiles, their
    // performance, and the energy of the parallel phase on them.
    double fabric_perf = 0.0;
    double parallel_energy = 0.0;
    OrgRules(het).visit([&](const auto &form) {
        CoreSize core = form.size(het_design.r, opts.alpha);
        fabric_perf = parallelPerf(form, core, het_design.n);
        parallel_energy =
            form.parallelEnergy(f, core, het_design.n, fabric_perf);
    });

    // Required serial perf: (1-f)/p + f/fabric = 1/S0.
    double budget_time = 1.0 / baseline.speedup;
    double fabric_time = f / fabric_perf;
    if (fabric_time >= budget_time)
        return res; // even an infinitely fast core couldn't match S0
    double p = (1.0 - f) / (budget_time - fabric_time);

    // The core cannot be asked to exceed its own capability at the
    // design's r (DVFS only slows it down).
    double p_max = model::perfSeq(het_design.r);
    if (p > p_max)
        return res;

    res.achievable = true;
    res.serialPerf = p;
    res.serialPower = model::powerForPerf(p, opts.alpha);
    // Energy: serial phase at the slowed point + parallel phase.
    res.energy = (1.0 - f) / p * res.serialPower + parallel_energy;
    return res;
}

} // namespace core
} // namespace hcm
