/**
 * @file
 * Numeric helpers shared across the modeling code: linear
 * interpolation, root finding, maximization, and integer powers of two.
 */

#ifndef HCM_UTIL_MATH_HH
#define HCM_UTIL_MATH_HH

#include <cstddef>
#include <vector>

namespace hcm {

/** Linear interpolation between (x0,y0) and (x1,y1) evaluated at x. */
double lerp(double x0, double y0, double x1, double y1, double x);

/**
 * Piecewise-linear interpolation over sorted knot vectors @p xs / @p ys.
 * Values outside the knot range are linearly extrapolated from the
 * nearest segment.
 */
double interpLinear(const std::vector<double> &xs,
                    const std::vector<double> &ys, double x);

/**
 * Find a root of @p fn in [lo, hi] by bisection. @p fn must have opposite
 * signs at the endpoints.
 *
 * @param tol absolute tolerance on the bracketing interval width.
 */
template <typename Fn>
double
bisect(Fn &&fn, double lo, double hi, double tol = 1e-9)
{
    double flo = fn(lo);
    for (int i = 0; i < 200 && (hi - lo) > tol; ++i) {
        double mid = 0.5 * (lo + hi);
        double fmid = fn(mid);
        if ((flo <= 0.0) == (fmid <= 0.0)) {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

/**
 * Maximize a unimodal function on [lo, hi] by golden-section search.
 * Returns the better of the last two probes, not the final bracket's
 * midpoint: when the maximum sits on an edge past which @p fn falls off
 * a cliff (an infeasible design), the midpoint can land past the edge.
 * The caller re-evaluates for the max value.
 */
template <typename Fn>
double
goldenMax(Fn &&fn, double lo, double hi, double tol = 1e-9)
{
    constexpr double inv_phi = 0.6180339887498949;
    double a = lo, b = hi;
    double c = b - (b - a) * inv_phi;
    double d = a + (b - a) * inv_phi;
    double fc = fn(c), fd = fn(d);
    while ((b - a) > tol) {
        if (fc > fd) {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * inv_phi;
            fc = fn(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * inv_phi;
            fd = fn(d);
        }
    }
    return fc > fd ? c : d;
}

/** Clamp @p x to [lo, hi]. */
double clamp(double x, double lo, double hi);

/** Integer log2 of a power of two; panics otherwise. */
unsigned ilog2(std::size_t n);

/** True when @p n is a power of two (and nonzero). */
bool isPow2(std::size_t n);

} // namespace hcm

#endif // HCM_UTIL_MATH_HH
