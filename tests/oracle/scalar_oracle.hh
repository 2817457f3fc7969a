/**
 * @file
 * The scalar reference implementations of the design-point search:
 * one candidate at a time, with each organization kind's Table 1 rows,
 * headroom rule, speedup and energy written out per kind rather than
 * read from core::OrgRules. They are the oracles the SoA batch kernel
 * behind optimize() and enumerateDesigns() is verified against (0-ULP;
 * see DESIGN.md "SoA batch kernel"), so they live with the tests and
 * the batch benchmark, not in the shipped library.
 */

#ifndef HCM_TESTS_ORACLE_SCALAR_ORACLE_HH
#define HCM_TESTS_ORACLE_SCALAR_ORACLE_HH

#include <vector>

#include "core/optimizer.hh"
#include "core/pareto.hh"

namespace hcm {
namespace core {

/** optimize() evaluated candidate by candidate. */
DesignPoint optimizeScalar(const Organization &org, double f,
                           const Budget &budget,
                           OptimizerOptions opts = {});

/** enumerateDesigns() evaluated candidate by candidate. */
std::vector<ParetoPoint> enumerateDesignsScalar(
    const wl::Workload &w, double f, const itrs::NodeParams &node,
    const Scenario &scenario = baselineScenario(),
    OptimizerOptions opts = {},
    const BceCalibration &calib = BceCalibration::standard());

} // namespace core
} // namespace hcm

#endif // HCM_TESTS_ORACLE_SCALAR_ORACLE_HH
