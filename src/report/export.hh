/**
 * @file
 * JSON export of projection results: the machine-readable counterpart
 * of the projection figures, for notebooks and downstream tooling.
 * `hcm project --json` prints it.
 */

#ifndef HCM_REPORT_EXPORT_HH
#define HCM_REPORT_EXPORT_HH

#include <ostream>
#include <vector>

#include "core/projection.hh"

namespace hcm {
namespace report {

/**
 * Write a full projection (every organization x node) for @p w at the
 * given fractions as one JSON document:
 *
 * {
 *   "workload": "FFT-1024", "scenario": "baseline",
 *   "bytesPerOp": 0.32,
 *   "projections": [
 *     {"f": 0.99, "series": [
 *        {"organization": "ASIC", "paperIndex": 6, "mu": ..., "phi": ...,
 *         "points": [{"node": "40nm", "year": 2011, "speedup": ...,
 *                     "r": ..., "n": ..., "limiter": "bandwidth",
 *                     "energyNormalized": ..., "budget":
 *                     {"area": ..., "power": ..., "bandwidth": ...}},
 *                    ...]},
 *        ...]},
 *     ...]
 * }
 */
void exportProjectionJson(
    std::ostream &out, const wl::Workload &w,
    const std::vector<double> &fractions,
    const core::Scenario &scenario = core::baselineScenario());

} // namespace report
} // namespace hcm

#endif // HCM_REPORT_EXPORT_HH
