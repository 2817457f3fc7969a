/**
 * @file
 * Design-point optimizer (Section 6): for one organization, workload
 * fraction f, and budget, sweep the sequential core size r (the paper
 * sweeps r <= 16), bound n by Table 1, and report the
 * speedup-maximizing (or energy-minimizing) design with its binding
 * constraint.
 */

#ifndef HCM_CORE_OPTIMIZER_HH
#define HCM_CORE_OPTIMIZER_HH

#include <vector>

#include "core/bounds.hh"
#include "core/energy.hh"
#include "core/org_rules.hh"
#include "core/organization.hh"

namespace hcm {
namespace core {

/** What the optimizer maximizes. */
enum class Objective {
    MaxSpeedup,
    MinEnergy,
};

/**
 * Hard ceiling on the r-candidate grid. The paper sweeps r <= 16; the
 * grid exists to walk integer core sizes, not to enumerate a budget.
 * A caller that bypasses opts.rMax (or sets it huge) with an enormous
 * or non-finite serial cap — e.g. a bandwidth-exempt organization under
 * an unbounded budget — would otherwise loop and allocate without
 * bound. Caps above this value are clamped to it (and a NaN cap yields
 * an empty grid); the clamp truncates the sweep, it never invents
 * candidates.
 */
constexpr double kMaxRGridCap = 4096.0;

/** Optimizer knobs. */
struct OptimizerOptions
{
    /** Serial power exponent. */
    double alpha = model::kDefaultAlpha;
    /** Upper limit of the r sweep (the paper sweeps up to 16). */
    double rMax = 16.0;
    /**
     * Refine the best integer r by golden-section search over the
     * continuous range (off by default: the paper sweeps discrete r).
     */
    bool continuousR = false;
    Objective objective = Objective::MaxSpeedup;
};

/** One evaluated design. */
struct DesignPoint
{
    double f = 0.0;
    double r = 1.0;         ///< sequential core size (BCE)
    double n = 1.0;         ///< total usable resources (BCE)
    double speedup = 0.0;   ///< vs one BCE
    Limiter limiter = Limiter::Area;
    EnergyBreakdown energy; ///< BCE units, before node power scaling
    /** False when no design satisfies the serial bounds. */
    bool feasible = false;
};

/**
 * Speedup of organization @p org at an explicit (f, r, n)
 * (the Section 2.1 / 3.3 formulas, read from its OrgRules).
 */
double evaluateSpeedup(const Organization &org, double f, double r,
                       double n);

/**
 * The paper's discrete r sweep for a serial cap of @p cap:
 * r = 1 .. floor(cap) plus the fractional cap itself (the largest core
 * the serial bounds allow). Empty when @p cap < 1 or NaN — not even a
 * single-BCE core fits. Caps beyond kMaxRGridCap (including +inf) are
 * clamped to it. optimize(), enumerateDesigns(), optimizeMixed() and
 * optimizeProfiled() all draw their candidates from here, so no search
 * can diverge from the others.
 */
std::vector<double> rCandidateGrid(double cap);

/** rCandidateGrid() written into @p out (reuses capacity, no realloc
 *  in steady state — the batch kernel's scratch path). */
void rCandidateGridInto(double cap, std::vector<double> &out);

/**
 * Best design for @p org under @p budget at parallel fraction @p f.
 * Routed through the structure-of-arrays batch kernel
 * (core::BatchEvaluator); results are bit-identical to the scalar
 * oracle the tests keep (tests/oracle, 0-ULP; see DESIGN.md).
 */
DesignPoint optimize(const Organization &org, double f,
                     const Budget &budget, OptimizerOptions opts = {});

/**
 * Dynamic CMP has no independent r (all n resources morph between one
 * big core and n BCEs), so it skips the r grid entirely; exposed so
 * the batch kernel behind optimize() and the scalar oracle share one
 * copy of the bound-and-classify logic.
 */
DesignPoint optimizeDynamicCmp(const Organization &org, double f,
                               const Budget &budget,
                               const OptimizerOptions &opts);

} // namespace core
} // namespace hcm

#endif // HCM_CORE_OPTIMIZER_HH
