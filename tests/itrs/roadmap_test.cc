/** @file Tests for the ITRS 2009 roadmap (Figure 5). */

#include <gtest/gtest.h>

#include "itrs/roadmap.hh"

namespace hcm {
namespace itrs {
namespace {

const Roadmap &roadmap = Roadmap::instance();

/** The roadmap's row for @p year. */
const RoadmapYear &
yearOf(int year)
{
    for (const RoadmapYear &y : roadmap.years())
        if (y.year == year)
            return y;
    ADD_FAILURE() << "no roadmap row for " << year;
    return roadmap.years().front();
}

TEST(RoadmapTest, NormalizedTo2011)
{
    RoadmapYear y0 = yearOf(2011);
    EXPECT_DOUBLE_EQ(y0.pins, 1.0);
    EXPECT_DOUBLE_EQ(y0.vdd, 1.0);
    EXPECT_DOUBLE_EQ(y0.gateCap, 1.0);
    EXPECT_DOUBLE_EQ(y0.combinedPower, 1.0);
}

TEST(RoadmapTest, CoversTheFifteenYearWindow)
{
    EXPECT_EQ(roadmap.firstYear(), 2011);
    EXPECT_GE(roadmap.lastYear(), 2022);
    EXPECT_EQ(roadmap.years().size(),
              static_cast<std::size_t>(roadmap.lastYear() - 2011 + 1));
}

TEST(RoadmapTest, CombinedPowerMatchesTable6AtNodeYears)
{
    // {1, 0.75, 0.5, 0.36, 0.25} at {2011, 2013, 2016, 2019, 2022}.
    EXPECT_NEAR(yearOf(2013).combinedPower, 0.75, 1e-9);
    EXPECT_NEAR(yearOf(2016).combinedPower, 0.50, 1e-9);
    EXPECT_NEAR(yearOf(2019).combinedPower, 0.36, 1e-9);
    EXPECT_NEAR(yearOf(2022).combinedPower, 0.25, 1e-9);
}

TEST(RoadmapTest, VddSquaredTimesCapEqualsCombinedPower)
{
    // The reconstruction invariant (dynamic power = C * V^2 * f, flat f).
    for (int year : {2011, 2013, 2016, 2019, 2022}) {
        RoadmapYear y = yearOf(year);
        EXPECT_NEAR(y.impliedPower(), y.combinedPower, 0.01)
            << "year " << year;
    }
}

TEST(RoadmapTest, PowerDropsOnlyFiveFoldOverFifteenYears)
{
    // Section 6: "the reduction in power per transistor is expected to
    // drop only by a factor of 5X over the next fifteen years".
    double ratio = yearOf(2011).combinedPower /
                   yearOf(roadmap.lastYear()).combinedPower;
    EXPECT_GT(ratio, 3.5);
    EXPECT_LT(ratio, 6.0);
}

TEST(RoadmapTest, PinsGrowSlowly)
{
    // "< 1.5X over fifteen years".
    double growth = yearOf(roadmap.lastYear()).pins;
    EXPECT_GT(growth, 1.0);
    EXPECT_LT(growth, 1.5);
}

TEST(RoadmapTest, SeriesAreMonotone)
{
    double prev_pins = 0.0, prev_vdd = 2.0, prev_cap = 2.0, prev_pwr = 2.0;
    for (const RoadmapYear &y : roadmap.years()) {
        EXPECT_GE(y.pins, prev_pins);
        EXPECT_LE(y.vdd, prev_vdd);
        EXPECT_LE(y.gateCap, prev_cap);
        EXPECT_LE(y.combinedPower, prev_pwr);
        prev_pins = y.pins;
        prev_vdd = y.vdd;
        prev_cap = y.gateCap;
        prev_pwr = y.combinedPower;
    }
}

TEST(RoadmapTest, InterpolatesBetweenKnots)
{
    // 2012 sits halfway between the 2011 and 2013 knots.
    RoadmapYear y = yearOf(2012);
    EXPECT_NEAR(y.combinedPower, 0.875, 1e-9);
    EXPECT_NEAR(y.pins, 1.05, 1e-9);
}

} // namespace
} // namespace itrs
} // namespace hcm
