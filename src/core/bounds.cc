#include "bounds.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "amdahl/pollack.hh"
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
        legend += "(" + name.substr(0, tag_len) + ") " + name + suffix;
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

Limiter
classifyLimiter(double n_area, double n_power, double n_bw)
{
    return classifyLimiter(n_area, n_power, n_bw,
                           std::numeric_limits<double>::infinity());
}

UCoreRows
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
    double p = budget.power;
    switch (org.kind) {
      case OrgKind::SymmetricCmp:
        // n/r cores, each burning r^(alpha/2): n * r^(alpha/2 - 1) <= P.
        return p / std::pow(r, alpha / 2.0 - 1.0);
      case OrgKind::AsymmetricCmp:
        // n - r BCEs at power 1; the big core is powered off.
        return p + r;
      case OrgKind::Heterogeneous:
        return ucoreRows(org.ucore, org.bandwidthExempt, budget).power + r;
      case OrgKind::DynamicCmp:
        // All n resources active as BCEs in the parallel phase.
        return p;
    }
    hcm_panic("bad organization kind");
}

double
bandwidthBoundN(const Organization &org, double r, const Budget &budget)
{
    double b = budget.bandwidth;
    switch (org.kind) {
      case OrgKind::SymmetricCmp:
        // n/r cores of perf sqrt(r): traffic n/sqrt(r) <= B.
        return b * std::sqrt(r);
      case OrgKind::AsymmetricCmp:
        return b + r;
      case OrgKind::Heterogeneous: {
        // +inf when exempt: the row stays vacuous after the + r.
        UCoreRows rows = ucoreRows(org.ucore, org.bandwidthExempt, budget);
        return rows.bandwidth + r;
      }
      case OrgKind::DynamicCmp:
        return b;
    }
    hcm_panic("bad organization kind");
}

double
thermalBoundN(const Organization &org, double r, const Budget &budget,
              double alpha)
{
    // The thermal budget caps the same quantity the power budget does
    // (active watts), so its rows are powerBoundN's with TH for P.
    double th = budget.thermal;
    switch (org.kind) {
      case OrgKind::SymmetricCmp:
        return th / std::pow(r, alpha / 2.0 - 1.0);
      case OrgKind::AsymmetricCmp:
        return th + r;
      case OrgKind::Heterogeneous: {
        UCoreRows rows = ucoreRows(org.ucore, org.bandwidthExempt, budget);
        return rows.thermal + r;
      }
      case OrgKind::DynamicCmp:
        return th;
    }
    hcm_panic("bad organization kind");
}

ParallelBound
parallelBound(const Organization &org, double r, const Budget &budget,
              double alpha)
{
    hcm_assert(r > 0.0, "core size must be positive");
    double n_area = areaBoundN(budget);
    double n_power = powerBoundN(org, r, budget, alpha);
    double n_bw = bandwidthBoundN(org, r, budget);
    double n_thermal = thermalBoundN(org, r, budget, alpha);

    ParallelBound out;
    out.n = std::min({n_area, n_power, n_bw, n_thermal});
    out.limiter = classifyLimiter(n_area, n_power, n_bw, n_thermal);
    return out;
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
