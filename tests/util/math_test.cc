/** @file Unit tests for util/math. */

#include <cmath>

#include <gtest/gtest.h>

#include "util/math.hh"

namespace hcm {
namespace {

TEST(MathTest, Lerp)
{
    EXPECT_DOUBLE_EQ(lerp(0, 0, 1, 10, 0.5), 5.0);
    EXPECT_DOUBLE_EQ(lerp(0, 0, 1, 10, 2.0), 20.0); // extrapolates
    EXPECT_DOUBLE_EQ(lerp(1, 5, 1, 7, 1.0), 6.0);   // degenerate segment
}

TEST(MathTest, InterpLinearInsideAndOutside)
{
    std::vector<double> xs = {1, 2, 4};
    std::vector<double> ys = {10, 20, 40};
    EXPECT_DOUBLE_EQ(interpLinear(xs, ys, 1.5), 15.0);
    EXPECT_DOUBLE_EQ(interpLinear(xs, ys, 3.0), 30.0);
    EXPECT_DOUBLE_EQ(interpLinear(xs, ys, 2.0), 20.0); // at a knot
    // Linear extrapolation from the end segments.
    EXPECT_DOUBLE_EQ(interpLinear(xs, ys, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(interpLinear(xs, ys, 5.0), 50.0);
}

TEST(MathTest, BisectFindsRoot)
{
    double root = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
    EXPECT_NEAR(root, std::sqrt(2.0), 1e-7);
}

TEST(MathTest, BisectDecreasingFunction)
{
    double root = bisect([](double x) { return 1.0 - x; }, 0.0, 3.0);
    EXPECT_NEAR(root, 1.0, 1e-7);
}

TEST(MathTest, GoldenMaxFindsPeak)
{
    double x = goldenMax([](double v) { return -(v - 3.0) * (v - 3.0); },
                         0.0, 10.0, 1e-9);
    EXPECT_NEAR(x, 3.0, 1e-6);
}

TEST(MathTest, GoldenMaxAtBoundary)
{
    // Monotone increasing: max at the right edge.
    double x = goldenMax([](double v) { return v; }, 0.0, 5.0, 1e-9);
    EXPECT_NEAR(x, 5.0, 1e-6);
}

TEST(MathTest, Clamp)
{
    EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(MathTest, PowersOfTwo)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(1024));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(12));
    EXPECT_EQ(ilog2(1), 0u);
    EXPECT_EQ(ilog2(1024), 10u);
    EXPECT_EQ(ilog2(std::size_t{1} << 40), 40u);
}

} // namespace
} // namespace hcm
