/**
 * @file
 * ITRS scaling projections (Section 6): optimal designs per organization
 * across the Table 6 nodes, the data behind Figures 6-10.
 */

#ifndef HCM_CORE_PROJECTION_HH
#define HCM_CORE_PROJECTION_HH

#include <vector>

#include "core/multi_amdahl.hh"
#include "core/optimizer.hh"
#include "itrs/scaling.hh"

namespace hcm {
namespace core {

/**
 * A scenario applied at one node for one workload: the budgets, the
 * options with the scenario's alpha, and the node-independent
 * multi-Amdahl reduction of its segment profile (identity when empty).
 * The scenario must outlive it.
 */
struct AppliedScenario
{
    Budget budget;
    OptimizerOptions opts;
    const SegmentProfile *segments = nullptr;

    /** The effective organization the optimizer sees for @p org. */
    Organization organization(const Organization &org) const
    {
        return effectiveOrganization(org, *segments).org;
    }
    /** The effective model fraction for sweep fraction @p f. */
    double fraction(double f) const { return effectiveFraction(f, *segments); }
};

/** The one place a scenario becomes optimizer inputs; @p opts keeps
 *  every field but alpha. */
AppliedScenario applyScenario(
    const Scenario &scenario, const itrs::NodeParams &node,
    const wl::Workload &w, OptimizerOptions opts = {},
    const BceCalibration &calib = BceCalibration::standard());
/** A temporary scenario would leave the result's profile dangling. */
AppliedScenario applyScenario(
    const Scenario &&, const itrs::NodeParams &, const wl::Workload &,
    OptimizerOptions = {},
    const BceCalibration & = BceCalibration::standard()) = delete;

/** One node of a projection line. */
struct NodePoint
{
    itrs::NodeParams node;
    Budget budget;          ///< BCE-unit budgets at this node
    DesignPoint design;     ///< optimal design under those budgets

    /** Figure 10's metric: energy relative to one BCE at 40nm. */
    double
    energyNormalized() const
    {
        return normalizedEnergy(design.energy,
                                node.relPowerPerTransistor);
    }
};

/** One organization's line across all nodes. */
struct ProjectionSeries
{
    Organization org;
    std::vector<NodePoint> points;
};

/** Project one organization across the Table 6 nodes. */
ProjectionSeries projectOrganization(
    const Organization &org, const wl::Workload &w, double f,
    const Scenario &scenario = baselineScenario(),
    OptimizerOptions opts = {},
    const BceCalibration &calib = BceCalibration::standard());

/**
 * Project every organization the paper plots for @p w (CMPs + HETs with
 * data), in legend order. The optimizer's alpha follows the scenario.
 */
std::vector<ProjectionSeries> projectAll(
    const wl::Workload &w, double f,
    const Scenario &scenario = baselineScenario(),
    OptimizerOptions opts = {},
    const BceCalibration &calib = BceCalibration::standard());

/** The paper's standard f sweep (Figures 6, 7 and 9): 0.5 to 0.999. */
const std::vector<double> &standardFractions();

} // namespace core
} // namespace hcm

#endif // HCM_CORE_PROJECTION_HH
