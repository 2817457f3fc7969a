/**
 * @file
 * Named data series and axis descriptions shared by the ASCII renderer and
 * the gnuplot emitter.
 */

#ifndef HCM_PLOT_SERIES_HH
#define HCM_PLOT_SERIES_HH

#include <string>
#include <vector>

namespace hcm {
namespace plot {

/**
 * Line style, used to carry the paper's dashed-vs-solid semantics
 * (dashed = power-limited, solid = bandwidth-limited, none = area-limited).
 */
enum class LineStyle {
    Solid,
    Dashed,
    Points,
};

/** One (x, y) point, optionally with a per-point style override. */
struct Point
{
    double x = 0.0;
    double y = 0.0;
    /** Style of the segment leaving this point (projection figures color
     *  per-segment by limiter). */
    LineStyle style = LineStyle::Solid;
};

/** A named polyline. */
struct Series
{
    std::string name;
    std::vector<Point> points;
    LineStyle style = LineStyle::Solid;

    Series() = default;
    Series(std::string n, LineStyle s = LineStyle::Solid)
        : name(std::move(n)), style(s)
    {}

    /** Append a point inheriting the series style. */
    void add(double x, double y) { points.push_back({x, y, style}); }

    /** Append a point with an explicit segment style. */
    void
    add(double x, double y, LineStyle s)
    {
        points.push_back({x, y, s});
    }
};

/** Axis description. */
struct Axis
{
    std::string label;
    bool log = false;
    /**
     * Optional categorical tick labels; when set, x values are treated as
     * indices into this list (used for the technology-node x axes).
     */
    std::vector<std::string> categories;
};

} // namespace plot
} // namespace hcm

#endif // HCM_PLOT_SERIES_HH
