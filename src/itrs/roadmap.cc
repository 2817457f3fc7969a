#include "roadmap.hh"

#include "util/logging.hh"
#include "util/math.hh"

namespace hcm {
namespace itrs {

namespace {

/**
 * Knot years matching Table 6's node introductions plus the end of the
 * fifteen-year window. vdd and gateCap are chosen so vdd^2 * cap hits the
 * published combined power factors exactly; pins track relative
 * bandwidth.
 */
struct Knot
{
    int year;
    double pins;
    double vdd;
    double gateCap;
    double combinedPower;
};

constexpr Knot kKnots[] = {
    {2011, 1.00, 1.000, 1.000, 1.00},
    {2013, 1.10, 0.930, 0.867, 0.75},
    {2016, 1.30, 0.840, 0.709, 0.50},
    {2019, 1.30, 0.770, 0.607, 0.36},
    {2022, 1.40, 0.710, 0.496, 0.25},
    {2024, 1.45, 0.680, 0.452, 0.21},
};

} // namespace

Roadmap::Roadmap()
{
    // Expand knots to one entry per calendar year by linear interpolation.
    std::vector<double> years, pins, vdd, cap, pwr;
    for (const Knot &k : kKnots) {
        years.push_back(k.year);
        pins.push_back(k.pins);
        vdd.push_back(k.vdd);
        cap.push_back(k.gateCap);
        pwr.push_back(k.combinedPower);
    }
    for (int y = kKnots[0].year; y <= years.back(); ++y) {
        double fy = static_cast<double>(y);
        _years.push_back(RoadmapYear{
            y,
            interpLinear(years, pins, fy),
            interpLinear(years, vdd, fy),
            interpLinear(years, cap, fy),
            interpLinear(years, pwr, fy),
        });
    }
}

const Roadmap &
Roadmap::instance()
{
    static const Roadmap roadmap;
    return roadmap;
}

} // namespace itrs
} // namespace hcm
