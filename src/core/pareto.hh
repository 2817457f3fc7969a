/**
 * @file
 * Speedup/energy Pareto exploration. Section 6.3 shows that the best
 * chip depends on whether performance or energy is the objective; this
 * module enumerates every candidate design (organization x sequential
 * core size) at a node and extracts the designs that are not dominated
 * in the (maximize speedup, minimize energy) plane — the menu a
 * designer actually chooses from.
 */

#ifndef HCM_CORE_PARETO_HH
#define HCM_CORE_PARETO_HH

#include <optional>
#include <string>
#include <vector>

#include "core/projection.hh"

namespace hcm {
namespace core {

/** One candidate design with both objectives evaluated (infeasible
 *  only from bestDesigns()). */
struct ParetoPoint
{
    std::string orgName;
    int paperIndex = -1;
    DesignPoint design;
    double energyNormalized = 0.0;
};

/**
 * Enumerate all feasible designs for @p w at @p node: every paper
 * organization crossed with every integer r up to the serial cap
 * (plus the fractional cap). Routed through the SoA batch kernel
 * (core::BatchEvaluator), bit-identical to the scalar enumeration
 * the tests keep as its oracle (tests/oracle).
 */
std::vector<ParetoPoint> enumerateDesigns(
    const wl::Workload &w, double f, const itrs::NodeParams &node,
    const Scenario &scenario = baselineScenario(),
    OptimizerOptions opts = {},
    const BceCalibration &calib = BceCalibration::standard());

/** The best design (opts.objective) at @p node of each paper
 *  organization that matches the device filter, in legend order. */
std::vector<ParetoPoint> bestDesigns(
    const wl::Workload &w, double f, const itrs::NodeParams &node,
    const Scenario &scenario = baselineScenario(),
    std::optional<dev::DeviceId> device = std::nullopt,
    OptimizerOptions opts = {},
    const BceCalibration &calib = BceCalibration::standard());

/**
 * The non-dominated subset of @p points, sorted by increasing speedup:
 * a point dominates another when it is no worse in both objectives and
 * strictly better in one (within 1e-12). Ties collapse to a single
 * representative.
 */
std::vector<ParetoPoint> paretoFrontier(std::vector<ParetoPoint> points);

} // namespace core
} // namespace hcm

#endif // HCM_CORE_PARETO_HH
