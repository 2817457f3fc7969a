#include "bounds.hh"

#include <algorithm>
#include <limits>

#include "amdahl/pollack.hh"
#include "core/org_rules.hh"
#include "util/logging.hh"

namespace hcm {
namespace core {

std::string
limiterName(Limiter limiter)
{
    switch (limiter) {
      case Limiter::Area:
        return "area";
      case Limiter::Power:
        return "power";
      case Limiter::Bandwidth:
        return "bandwidth";
      case Limiter::Thermal:
        return "thermal";
    }
    hcm_panic("bad limiter");
}

std::string
limiterLegend(std::size_t tag_len, bool thermal, const std::string &suffix)
{
    std::string legend;
    for (Limiter limiter : {Limiter::Area, Limiter::Power,
                            Limiter::Bandwidth, Limiter::Thermal}) {
        if (limiter == Limiter::Thermal && !thermal)
            break;
        std::string name = limiterName(limiter);
        if (!legend.empty())
            legend += ", ";
        // Appended piece by piece: GCC 12 reports a false -Wrestrict in
        // an inlined "(" + std::string at -O2.
        legend += '(';
        legend.append(name, 0, tag_len);
        legend += ") ";
        legend += name;
        legend += suffix;
    }
    return legend;
}

Limiter
classifyLimiter(double n_area, double n_power, double n_bw,
                double n_thermal)
{
    if (n_area <= n_power && n_area <= n_bw && n_area <= n_thermal)
        return Limiter::Area;
    if (n_bw <= n_power && n_bw <= n_thermal)
        return Limiter::Bandwidth;
    if (n_thermal <= n_power)
        return Limiter::Thermal;
    return Limiter::Power;
}

ParallelRows
ucoreRows(const UCoreParams &ucore, bool bandwidth_exempt,
          const Budget &budget)
{
    // n - r BCE-tiles of U-core at power phi each; parallel perf
    // mu*(n-r) consumes mu*(n-r) units of traffic.
    return {budget.power / ucore.phi,
            bandwidth_exempt ? std::numeric_limits<double>::infinity()
                             : budget.bandwidth / ucore.mu,
            budget.thermal / ucore.phi};
}

double
areaBoundN(const Budget &budget)
{
    return budget.area;
}

double
powerBoundN(const Organization &org, double r, const Budget &budget,
            double alpha)
{
    return OrgRules(org).rows(r, budget, alpha).power;
}

double
bandwidthBoundN(const Organization &org, double r, const Budget &budget)
{
    // No bandwidth row reads alpha; any value serves.
    return OrgRules(org).rows(r, budget, model::kDefaultAlpha).bandwidth;
}

ParallelBound
parallelBound(const Organization &org, double r, const Budget &budget,
              double alpha)
{
    hcm_assert(r > 0.0, "core size must be positive");
    return parallelBound(areaBoundN(budget),
                         OrgRules(org).rows(r, budget, alpha));
}

double
serialRCap(const Budget &budget, double alpha)
{
    return std::min({model::maxSerialRForPower(budget.power, alpha),
                     model::maxSerialRForBandwidth(budget.bandwidth),
                     model::maxSerialRForPower(budget.thermal, alpha)});
}

} // namespace core
} // namespace hcm
