#include "energy.hh"

#include "amdahl/pollack.hh"
#include "core/org_rules.hh"
#include "util/logging.hh"

namespace hcm {
namespace core {

EnergyBreakdown
designEnergy(const Organization &org, double f, double r, double n,
             double alpha)
{
    hcm_assert(f >= 0.0 && f <= 1.0, "fraction outside [0,1]");
    hcm_assert(r > 0.0 && n >= r, "invalid design (r=", r, ", n=", n, ")");
    OrgRules rules(org);
    hcm_assert(!rules.needsHeadroom(f) || n > r,
               "offload design needs parallel resources");

    return rules.visit([&](const auto &form) {
        CoreSize core = form.size(r, alpha);
        EnergyBreakdown e;
        // Serial phase: time (1-f)/perf, power perf^alpha.
        double serial_perf = form.serialPerf(core, n);
        e.serial = (1.0 - f) / serial_perf *
                   model::powerForPerf(serial_perf, alpha);
        // Parallel phase: time f/perf_par, power of the active fabric.
        if (f > 0.0)
            e.parallel = form.parallelEnergy(f, core, n,
                                             parallelPerf(form, core, n));
        return e;
    });
}

double
normalizedEnergy(const EnergyBreakdown &energy,
                 double rel_power_per_transistor)
{
    hcm_assert(rel_power_per_transistor > 0.0,
               "relative power must be positive");
    return energy.total() * rel_power_per_transistor;
}

} // namespace core
} // namespace hcm
