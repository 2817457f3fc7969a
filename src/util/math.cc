#include "math.hh"

#include <algorithm>

#include "logging.hh"

namespace hcm {

double
lerp(double x0, double y0, double x1, double y1, double x)
{
    if (x1 == x0)
        return 0.5 * (y0 + y1);
    double t = (x - x0) / (x1 - x0);
    return y0 + t * (y1 - y0);
}

namespace {

/**
 * Index of the knot segment [i, i+1] containing x (clamped to the first
 * or last segment for out-of-range x).
 */
std::size_t
segmentIndex(const std::vector<double> &xs, double x)
{
    hcm_assert(xs.size() >= 2, "interpolation needs at least two knots");
    auto it = std::upper_bound(xs.begin(), xs.end(), x);
    if (it == xs.begin())
        return 0;
    std::size_t i = static_cast<std::size_t>(it - xs.begin()) - 1;
    return std::min(i, xs.size() - 2);
}

} // namespace

double
interpLinear(const std::vector<double> &xs, const std::vector<double> &ys,
             double x)
{
    hcm_assert(xs.size() == ys.size(), "knot vectors must match");
    std::size_t i = segmentIndex(xs, x);
    return lerp(xs[i], ys[i], xs[i + 1], ys[i + 1], x);
}

double
clamp(double x, double lo, double hi)
{
    return std::min(std::max(x, lo), hi);
}

unsigned
ilog2(std::size_t n)
{
    hcm_assert(isPow2(n), "ilog2 of non-power-of-two ", n);
    unsigned log = 0;
    while (n > 1) {
        n >>= 1;
        ++log;
    }
    return log;
}

bool
isPow2(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

} // namespace hcm
