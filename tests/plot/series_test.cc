/** @file Unit tests for plot/series. */

#include <gtest/gtest.h>

#include "plot/series.hh"

namespace hcm {
namespace plot {
namespace {

TEST(SeriesTest, AddInheritsSeriesStyle)
{
    Series s("asic", LineStyle::Dashed);
    s.add(1.0, 2.0);
    ASSERT_EQ(s.points.size(), 1u);
    EXPECT_EQ(s.points[0].style, LineStyle::Dashed);
}

TEST(SeriesTest, AddWithExplicitStyleOverrides)
{
    Series s("fpga");
    s.add(0.0, 1.0, LineStyle::Points);
    EXPECT_EQ(s.points[0].style, LineStyle::Points);
}

} // namespace
} // namespace plot
} // namespace hcm
