/**
 * @file
 * Crossover analysis: the paper's first conclusion — "effectively
 * exploiting the performance gain of U-cores requires sufficient
 * parallelism in excess of 90%" — computed instead of eyeballed. For a
 * device's HET, find the parallel fraction at which it first beats the
 * better CMP by a target ratio; speedup ratios are monotone in f for
 * HET-vs-CMP pairs, so bisection applies.
 */

#ifndef HCM_CORE_CROSSOVER_HH
#define HCM_CORE_CROSSOVER_HH

#include <optional>

#include "core/optimizer.hh"

namespace hcm {
namespace core {

/**
 * Speedup ratio challenger/incumbent at fraction @p f (both sides
 * independently optimized). Returns 0 when the challenger is
 * infeasible, +inf when only the incumbent is.
 */
double speedupRatio(const Organization &challenger,
                    const Organization &incumbent, double f,
                    const Budget &budget, OptimizerOptions opts = {});

/**
 * Convenience: the minimum parallelism at which the HET for @p device
 * beats the better of the two CMPs by @p target at @p node under
 * @p scenario (applyScenario(), segment profile included). nullopt when
 * it never does.
 */
std::optional<double> requiredParallelism(
    dev::DeviceId device, const wl::Workload &w, double target,
    const itrs::NodeParams &node,
    const Scenario &scenario = baselineScenario());

} // namespace core
} // namespace hcm

#endif // HCM_CORE_CROSSOVER_HH
