/**
 * @file
 * Table 1: how the (n, r) design variables are bounded by the area,
 * power, and bandwidth budgets for each chip organization.
 *
 *                    Symmetric        Asym-offload    Heterogeneous
 *  area              n <= A           n <= A          n <= A
 *  parallel power    n <= P/r^(a/2-1) n <= P + r      n <= P/phi + r
 *  serial power      r^(a/2) <= P     r^(a/2) <= P    r^(a/2) <= P
 *  parallel bw       n <= B sqrt(r)   n <= B + r      n <= B/mu + r
 *  serial bw         r <= B^2         r <= B^2        r <= B^2
 *
 * Thermal-bounded scenarios (Yavits-style junction cap) add a fourth
 * budget TH — the thermally admissible dynamic power in the same BCE
 * units as P — which bounds the same quantity power does, so its rows
 * are P's rows with TH substituted:
 *
 *  parallel thermal  n <= TH/r^(a/2-1) n <= TH + r    n <= TH/phi + r
 *  serial thermal    r^(a/2) <= TH     r^(a/2) <= TH  r^(a/2) <= TH
 *
 * TH = +inf for every non-thermal scenario, which makes all four rows
 * vacuous and reproduces the three-budget model bit-for-bit.
 *
 * The binding parallel constraint is recorded as the design's Limiter —
 * the paper's dashed (power) / solid (bandwidth) / unconnected (area)
 * line classification, extended with "thermal".
 */

#ifndef HCM_CORE_BOUNDS_HH
#define HCM_CORE_BOUNDS_HH

#include <algorithm>
#include <string>

#include "core/budget.hh"
#include "core/organization.hh"

namespace hcm {
namespace core {

/** Which budget caps a design's scaling. */
enum class Limiter {
    Area,
    Power,
    Bandwidth,
    Thermal,
};

/** Display name ("area", "power", "bandwidth", "thermal"). */
std::string limiterName(Limiter limiter);

/**
 * The key to the limiter tags a table prints, e.g. "(a) area, (p) power,
 * (b) bandwidth": each tag is the limiter's name cut to @p tag_len
 * letters, followed by the name and @p suffix. Thermal is listed only
 * when @p thermal, since only thermal-bounded scenarios can bind it.
 */
std::string limiterLegend(std::size_t tag_len, bool thermal,
                          const std::string &suffix = "");

/**
 * The binding constraint given the parallel bound values, per the
 * paper's figure conventions: area-limited designs use the full die;
 * otherwise precedence in the (measure-zero) tie cases is
 * bandwidth > thermal > power. This is the ONE definition of the
 * tie-break — parallelBound() and the dynamic-CMP optimizer both
 * classify through it, so the two paths cannot drift.
 */
Limiter classifyLimiter(double n_area, double n_power, double n_bw,
                        double n_thermal);

/** Result of evaluating the parallel-phase bounds at a given r. */
struct ParallelBound
{
    double n = 0.0;   ///< usable resources, min over the three bounds
    Limiter limiter = Limiter::Area;
};

/** Table 1's three parallel rows: the n each budget admits. */
struct ParallelRows
{
    double power = 0.0;
    double bandwidth = 0.0;
    double thermal = 0.0;
};

/** The usable n under the area row and @p rows, and which one binds
 *  (inline: the batch kernel evaluates it per grid candidate). */
inline ParallelBound
parallelBound(double n_area, const ParallelRows &rows)
{
    return {std::min({n_area, rows.power, rows.bandwidth, rows.thermal}),
            classifyLimiter(n_area, rows.power, rows.bandwidth,
                            rows.thermal)};
}

/**
 * Usable total resources n for organization @p org with a sequential
 * core of size @p r (Table 1, parallel rows + area row, plus the
 * thermal row when the budget carries a finite TH).
 */
ParallelBound parallelBound(const Organization &org, double r,
                            const Budget &budget, double alpha);

/**
 * Largest sequential core size satisfying the serial rows of Table 1:
 * min(P^(2/alpha), B^2, TH^(2/alpha)).
 */
double serialRCap(const Budget &budget, double alpha);

/**
 * The heterogeneous rows of Table 1 before the "+ r": the U-core area
 * n - r that the power, bandwidth and thermal budgets each admit
 * (P / phi, B / mu or +inf when @p bandwidth_exempt, TH / phi). The
 * Offload rules (core/org_rules) and the mixed-chip slots both read
 * them, so one definition serves them.
 */
ParallelRows ucoreRows(const UCoreParams &ucore, bool bandwidth_exempt,
                       const Budget &budget);

/** Individual parallel bounds, exposed for tests and reports. */
double areaBoundN(const Budget &budget);
double powerBoundN(const Organization &org, double r, const Budget &budget,
                   double alpha);
double bandwidthBoundN(const Organization &org, double r,
                       const Budget &budget);

} // namespace core
} // namespace hcm

#endif // HCM_CORE_BOUNDS_HH
