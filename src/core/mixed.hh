/**
 * @file
 * Mixed U-core chips — the Section 6.3 discussion ("a high arithmetic
 * intensity kernel such as MMM could be fabricated as custom logic
 * alongside GPU- or FPGA-based U-cores used to accelerate
 * bandwidth-limited kernels such as FFTs") turned into a model.
 *
 * An application is a set of kernel slots, each a (workload, fraction,
 * fabric) triple; the remaining fraction is serial. Phases execute one
 * at a time, so each slot sees the full power and (workload-specific)
 * bandwidth budgets, while die area is shared:
 *
 *   Partitioned:  every slot gets its own fabric; areas a_i are
 *                 disjoint, sum a_i <= A - r. Optimal areas follow a
 *                 water-filling rule: a_i ~ sqrt(f_i / mu_i) up to each
 *                 slot's cap c_i = min(P/phi_i, B_i/mu_i, TH/phi_i),
 *                 the heterogeneous rows of Table 1 before the "+ r"
 *                 (core::ucoreRows).
 *   Shared:       one fabric (e.g. an FPGA or GPU pool) of area a is
 *                 reused by every phase with per-workload (mu_i, phi_i);
 *                 a <= min(A - r, min_i c_i).
 *
 * The r sweep is the optimizer's grid (core::rCandidateGrid) and each
 * slot's limiter is classifyLimiter() over its area and rows, so a
 * single slot reproduces optimize() on the same heterogeneous chip.
 *
 * Speedup = 1 / ((1 - sum f_i)/sqrt(r) + sum_i f_i/(mu_i a_i)).
 */

#ifndef HCM_CORE_MIXED_HH
#define HCM_CORE_MIXED_HH

#include <string>
#include <vector>

#include "core/budget.hh"
#include "core/bounds.hh"
#include "core/optimizer.hh"

namespace hcm {
namespace core {

/** One kernel phase of a mixed-fabric application. */
struct KernelSlot
{
    wl::Workload workload = wl::Workload::mmm();
    double fraction = 0.0;   ///< share of baseline (1-BCE) execution time
    UCoreParams ucore;       ///< fabric parameters for this workload
    std::string fabricName;  ///< display label ("ASIC", "GTX285", ...)
    bool bandwidthExempt = false;
};

/** Area-sharing discipline across slots. */
enum class FabricMode {
    Partitioned, ///< one dedicated fabric per slot, disjoint areas
    Shared,      ///< a single fabric reused by all phases
};

/** Result of optimizing a mixed chip at one node. */
struct MixedDesign
{
    double r = 1.0;
    std::vector<double> areas;       ///< fabric area per slot (BCE);
                                     ///< equal entries in Shared mode
    std::vector<Limiter> slotLimiter;///< binding constraint per slot
    double speedup = 0.0;
    double energy = 0.0;             ///< BCE units, before node scaling
    bool feasible = false;
};

/**
 * Build a slot for @p device on @p w covering @p fraction of execution,
 * with (mu, phi) calibrated through @p calib. Panics when the paper has
 * no measurement for the pair.
 */
KernelSlot makeSlot(dev::DeviceId device, const wl::Workload &w,
                    double fraction,
                    const BceCalibration &calib =
                        BceCalibration::standard());

/** Why @p slots are not one application ("" when they are): no slot,
 *  a fraction outside [0, 1], or fractions summing past 1. */
std::string slotsError(const std::vector<KernelSlot> &slots);

/**
 * Optimize a mixed chip at @p node: sweeps the sequential core size like
 * the single-fabric optimizer, then allocates fabric area per slot.
 *
 * The slots are the phases, so a scenario with a segment profile
 * panics.
 *
 * @param slots kernel phases; slotsError() must be empty.
 * @param mode area-sharing discipline.
 */
MixedDesign optimizeMixed(
    const std::vector<KernelSlot> &slots, FabricMode mode,
    const itrs::NodeParams &node,
    const Scenario &scenario = baselineScenario(),
    OptimizerOptions opts = {},
    const BceCalibration &calib = BceCalibration::standard());

/**
 * Water-filling area allocation for partitioned mode, exposed for
 * testing: maximize sum_i f_i/(mu_i a_i)^-1 ... i.e. minimize the
 * parallel time sum f_i/(mu_i a_i) subject to sum a_i <= total and
 * a_i <= cap_i. Returns the optimal a_i (zero for slots with zero
 * fraction).
 */
std::vector<double> waterfillAreas(const std::vector<double> &fractions,
                                   const std::vector<double> &mus,
                                   const std::vector<double> &caps,
                                   double total);

} // namespace core
} // namespace hcm

#endif // HCM_CORE_MIXED_HH
