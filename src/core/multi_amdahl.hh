/**
 * @file
 * Multi-Amdahl (Zidenberg et al., IEEE CAL 2012): the workload is a set
 * of segments, each with its own parallel fraction and its own affinity
 * to the organization's U-core, and the U-core area is split across
 * per-segment accelerators by the Lagrange-multiplier optimum.
 *
 * Model. Segment i carries weight w_i (Sum w_i = 1), fraction f_i, and
 * affinity scales (muScale_i, phiScale_i) against the organization's
 * calibrated (mu, phi). At sweep fraction f, segment i contributes
 * f * f_i * w_i parallel work; the accelerator partition granted share
 * s_i of the (n - r) U-core tiles runs it at rate mu_i * s_i * (n - r)
 * with mu_i = muScale_i * mu. Parallel time is therefore
 *
 *   T_par(s) = f / (n - r) * Sum_i c_i / s_i,   c_i = w_i f_i / mu_i.
 *
 * Minimizing over the allocation simplex (Sum s_i = 1) with a Lagrange
 * multiplier gives the classic square-root rule
 *
 *   s_i* = sqrt(c_i) / Sum_j sqrt(c_j),
 *   min T_par = f / (n - r) * (Sum_i sqrt(c_i))^2.
 *
 * Reduction. That optimum is EXACTLY the single-f heterogeneous model
 * evaluated at effective parameters
 *
 *   fScale  = Sum_i w_i f_i          (f_eff = fScale * f)
 *   mu_eff  = fScale / (Sum_i sqrt(c_i))^2
 *   phi_eff = Sum_i s_i* (phiScale_i * phi)
 *
 * all independent of f — so one effective Organization feeds the whole
 * f-grid and every downstream layer (Table 1 bounds, optimize(), the
 * SoA BatchEvaluator, enumerateDesigns, energy) runs UNCHANGED. For
 * non-heterogeneous organizations all segments execute on the one
 * shared fabric, so only f_eff applies and the reduction is exact by
 * linearity of time. With N = 1 the share algebra collapses (s_1 = 1)
 * and the code uses the segment's scales directly, so a single-segment
 * profile with unit scales reproduces the classic model BYTE-FOR-BYTE
 * (the 0-ULP discipline of DESIGN.md "SoA batch kernel" extends to
 * this transform: it happens once per (org, scenario), outside the
 * kernels, and the kernels see ordinary parameters).
 */

#ifndef HCM_CORE_MULTI_AMDAHL_HH
#define HCM_CORE_MULTI_AMDAHL_HH

#include <vector>

#include "core/organization.hh"
#include "core/scenario.hh"

namespace hcm {
namespace core {

/** An organization transformed by a segment profile, plus the scale
 *  mapping the sweep fraction f to the effective model fraction. */
struct EffectiveOrg
{
    Organization org;
    /** f_eff = fScale * f (1.0 for an empty profile). */
    double fScale = 1.0;
};

/**
 * The single-f equivalent of running @p profile on @p org under the
 * Lagrange-optimal area split. Identity for an empty profile; for
 * non-heterogeneous kinds only fScale differs from identity. Validates
 * the profile (panics on malformed segments).
 */
EffectiveOrg effectiveOrganization(const Organization &org,
                                   const SegmentProfile &profile);

/** Effective model fraction for sweep fraction @p f: f when the
 *  profile is empty, fScale * f otherwise. */
double effectiveFraction(double f, const SegmentProfile &profile);

/**
 * The Lagrange-optimal U-core area shares s_i* for @p profile against
 * a heterogeneous organization with calibrated rate @p mu (exposed for
 * tests and reports). Empty result for an empty profile; uniform zero
 * weights are rejected by the profile check.
 */
std::vector<double> segmentShares(const SegmentProfile &profile, double mu);

} // namespace core
} // namespace hcm

#endif // HCM_CORE_MULTI_AMDAHL_HH
