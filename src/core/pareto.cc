#include "pareto.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/optimizer_batch.hh"
#include "util/logging.hh"

namespace hcm {
namespace core {

namespace {

constexpr double kTieEps = 1e-12;

} // namespace

std::vector<ParetoPoint>
enumerateDesigns(const wl::Workload &w, double f,
                 const itrs::NodeParams &node, const Scenario &scenario,
                 OptimizerOptions opts, const BceCalibration &calib)
{
    AppliedScenario applied = applyScenario(scenario, node, w, opts, calib);

    // One SoA table per organization; the scalar oracle's per-candidate
    // bound walk becomes contiguous array passes. Results are
    // bit-identical (enforced by tests/core/optimizer_batch_test.cc).
    std::vector<ParetoPoint> points;
    std::vector<DesignPoint> designs;
    BatchEvaluator evaluator;
    double f_eff = applied.fraction(f);
    for (const Organization &org : paperOrganizations(w, calib)) {
        evaluator.assign(applied.organization(org), applied.budget,
                         applied.opts);
        designs.clear();
        evaluator.evaluateAll(f_eff, designs);
        for (const DesignPoint &dp : designs) {
            ParetoPoint pt;
            pt.orgName = org.name;
            pt.paperIndex = org.paperIndex;
            pt.design = dp;
            pt.energyNormalized =
                normalizedEnergy(dp.energy, node.relPowerPerTransistor);
            points.push_back(pt);
        }
    }
    return points;
}

std::vector<ParetoPoint>
bestDesigns(const wl::Workload &w, double f, const itrs::NodeParams &node,
            const Scenario &scenario, std::optional<dev::DeviceId> device,
            OptimizerOptions opts, const BceCalibration &calib)
{
    AppliedScenario applied = applyScenario(scenario, node, w, opts, calib);
    double f_eff = applied.fraction(f);
    std::vector<ParetoPoint> points;
    for (const Organization &org : paperOrganizations(w, calib)) {
        if (!org.matchesDevice(device))
            continue;
        DesignPoint dp = optimize(applied.organization(org), f_eff,
                                  applied.budget, applied.opts);
        points.push_back({org.name, org.paperIndex, dp,
                          dp.feasible ? normalizedEnergy(
                                            dp.energy,
                                            node.relPowerPerTransistor)
                                      : 0.0});
    }
    return points;
}

std::vector<ParetoPoint>
paretoFrontier(std::vector<ParetoPoint> points)
{
    // Dominance scan in O(n log n): view the points sorted by speedup
    // descending (ties: energy ascending). p dominates c exactly when
    //   (p.s >  c.s + eps && p.e <= c.e + eps)   [speedup win]
    // or (p.s >= c.s - eps && p.e <  c.e - eps)  [energy win],
    // and walking candidates in that order makes the points satisfying
    // either speedup condition two growing prefixes of the same order,
    // so a running minimum energy per prefix answers both existence
    // tests in O(1) per candidate.
    std::vector<std::size_t> order(points.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (points[a].design.speedup != points[b].design.speedup)
                      return points[a].design.speedup >
                             points[b].design.speedup;
                  return points[a].energyNormalized <
                         points[b].energyNormalized;
              });

    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<char> dominated(points.size(), 0);
    std::size_t strict = 0; // prefix with p.s >  c.s + eps
    std::size_t band = 0;   // prefix with p.s >= c.s - eps
    double min_e_strict = kInf;
    double min_e_band = kInf;
    for (std::size_t k = 0; k < order.size(); ++k) {
        const ParetoPoint &c = points[order[k]];
        double s = c.design.speedup;
        while (strict < order.size() &&
               points[order[strict]].design.speedup > s + kTieEps) {
            min_e_strict = std::min(min_e_strict,
                                    points[order[strict]].energyNormalized);
            ++strict;
        }
        while (band < order.size() &&
               points[order[band]].design.speedup >= s - kTieEps) {
            min_e_band = std::min(min_e_band,
                                  points[order[band]].energyNormalized);
            ++band;
        }
        if (min_e_strict <= c.energyNormalized + kTieEps ||
            min_e_band < c.energyNormalized - kTieEps)
            dominated[order[k]] = 1;
    }

    std::vector<ParetoPoint> frontier;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (dominated[i])
            continue;
        const ParetoPoint &candidate = points[i];
        // Collapse exact ties (same speedup and energy).
        bool duplicate = false;
        for (const ParetoPoint &kept : frontier) {
            if (std::fabs(kept.design.speedup - candidate.design.speedup)
                    <= kTieEps &&
                std::fabs(kept.energyNormalized -
                          candidate.energyNormalized) <= kTieEps) {
                duplicate = true;
                break;
            }
        }
        if (!duplicate)
            frontier.push_back(candidate);
    }
    std::sort(frontier.begin(), frontier.end(),
              [](const ParetoPoint &a, const ParetoPoint &b) {
                  return a.design.speedup < b.design.speedup;
              });
    return frontier;
}

} // namespace core
} // namespace hcm
