#include "projection.hh"

namespace hcm {
namespace core {

AppliedScenario
applyScenario(const Scenario &scenario, const itrs::NodeParams &node,
              const wl::Workload &w, OptimizerOptions opts,
              const BceCalibration &calib)
{
    opts.alpha = scenario.alpha;
    return {makeBudget(node, w, scenario, calib), opts,
            &scenario.segments};
}

ProjectionSeries
projectOrganization(const Organization &org, const wl::Workload &w,
                    double f, const Scenario &scenario,
                    OptimizerOptions opts, const BceCalibration &calib)
{
    ProjectionSeries series;
    series.org = org;
    Organization eff;
    double f_eff = f;
    for (const itrs::NodeParams &node : itrs::nodeTable()) {
        AppliedScenario applied =
            applyScenario(scenario, node, w, opts, calib);
        if (series.points.empty()) { // node-independent: reduce once
            eff = applied.organization(org);
            f_eff = applied.fraction(f);
        }
        series.points.push_back(
            {node, applied.budget,
             optimize(eff, f_eff, applied.budget, applied.opts)});
    }
    return series;
}

std::vector<ProjectionSeries>
projectAll(const wl::Workload &w, double f, const Scenario &scenario,
           OptimizerOptions opts, const BceCalibration &calib)
{
    std::vector<ProjectionSeries> out;
    for (const Organization &org : paperOrganizations(w, calib))
        out.push_back(
            projectOrganization(org, w, f, scenario, opts, calib));
    return out;
}

const std::vector<double> &
standardFractions()
{
    static const std::vector<double> fs = {0.5, 0.9, 0.99, 0.999};
    return fs;
}

} // namespace core
} // namespace hcm
