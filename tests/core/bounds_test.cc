/** @file Closed-form verification of Table 1's bounds. */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/bounds.hh"
#include "core/optimizer.hh"

namespace hcm {
namespace core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Budget
budget(double a, double p, double b)
{
    return Budget{a, p, b};
}

Organization
het(double mu, double phi, bool exempt = false)
{
    Organization o;
    o.kind = OrgKind::Heterogeneous;
    o.name = "test-ucore";
    o.ucore = UCoreParams{mu, phi};
    o.bandwidthExempt = exempt;
    return o;
}

constexpr double kAlpha = 1.75;

TEST(BoundsTest, SymmetricParallelPower)
{
    // n <= P / r^(alpha/2 - 1): n/r cores each burning r^(alpha/2).
    double p = 10.0, r = 4.0;
    double n = powerBoundN(symmetricCmp(), r, budget(100, p, 100), kAlpha);
    EXPECT_NEAR(n, p / std::pow(r, kAlpha / 2.0 - 1.0), 1e-12);
    // Check the physics: that n exactly exhausts the power budget.
    EXPECT_NEAR((n / r) * std::pow(r, kAlpha / 2.0), p, 1e-9);
}

TEST(BoundsTest, SymmetricParallelBandwidth)
{
    // n <= B sqrt(r): n/r cores of perf sqrt(r).
    double b = 20.0, r = 9.0;
    double n = bandwidthBoundN(symmetricCmp(), r, budget(1e9, 1e9, b));
    EXPECT_NEAR(n, b * 3.0, 1e-12);
    EXPECT_NEAR((n / r) * std::sqrt(r), b, 1e-9); // traffic = budget
}

TEST(BoundsTest, AsymOffloadBounds)
{
    Organization asym = asymmetricCmp();
    EXPECT_NEAR(powerBoundN(asym, 5.0, budget(1e9, 12.0, 1e9), kAlpha),
                17.0, 1e-12);
    EXPECT_NEAR(bandwidthBoundN(asym, 5.0, budget(1e9, 1e9, 30.0)), 35.0,
                1e-12);
}

TEST(BoundsTest, HeterogeneousBounds)
{
    Organization o = het(27.4, 0.79);
    double r = 3.0;
    // n <= P/phi + r: (n-r) tiles burning phi each.
    double np = powerBoundN(o, r, budget(1e9, 8.43, 1e9), kAlpha);
    EXPECT_NEAR((np - r) * 0.79, 8.43, 1e-9);
    // n <= B/mu + r: (n-r) tiles producing mu units of traffic each.
    double nb = bandwidthBoundN(o, r, budget(1e9, 1e9, 57.9));
    EXPECT_NEAR((nb - r) * 27.4, 57.9, 1e-9);
}

TEST(BoundsTest, LowPhiRelaxesPowerHighMuTightensBandwidth)
{
    // Section 3.3's note: lower phi diminishes the impact of P, higher
    // mu increases bandwidth consumption.
    Budget b = budget(1e9, 10.0, 50.0);
    EXPECT_GT(powerBoundN(het(2.0, 0.3), 2.0, b, kAlpha),
              powerBoundN(het(2.0, 1.0), 2.0, b, kAlpha));
    EXPECT_LT(bandwidthBoundN(het(10.0, 0.5), 2.0, b),
              bandwidthBoundN(het(2.0, 0.5), 2.0, b));
}

TEST(BoundsTest, BandwidthExemptionIsInfinite)
{
    Organization o = het(27.4, 0.79, true);
    EXPECT_TRUE(std::isinf(bandwidthBoundN(o, 2.0, budget(10, 10, 1.0))));
}

TEST(BoundsTest, SerialCapCombinesPowerAndBandwidth)
{
    // r <= min(P^(2/alpha), B^2).
    EXPECT_NEAR(serialRCap(budget(1e9, 8.0, 1e9), kAlpha),
                std::pow(8.0, 2.0 / 1.75), 1e-9);
    EXPECT_NEAR(serialRCap(budget(1e9, 1e9, 3.0), kAlpha), 9.0, 1e-9);
    EXPECT_NEAR(serialRCap(budget(1e9, 8.0, 2.0), kAlpha), 4.0, 1e-9);
}

TEST(BoundsTest, LimiterClassification)
{
    Organization o = het(10.0, 1.0);
    // Area smallest.
    EXPECT_EQ(parallelBound(o, 1.0, budget(5.0, 1e9, 1e9), kAlpha).limiter,
              Limiter::Area);
    // Power smallest.
    EXPECT_EQ(parallelBound(o, 1.0, budget(1e9, 3.0, 1e9), kAlpha).limiter,
              Limiter::Power);
    // Bandwidth smallest.
    EXPECT_EQ(
        parallelBound(o, 1.0, budget(1e9, 1e9, 3.0), kAlpha).limiter,
        Limiter::Bandwidth);
}

TEST(BoundsTest, ClassifyLimiterBreaksTiesAreaFirstThenBandwidth)
{
    // The one shared tie-break definition: area wins any tie it is part
    // of, bandwidth beats power. Every caller (parallelBound, the
    // dynamic-CMP optimizer, the batch kernel) must agree on these.
    EXPECT_EQ(classifyLimiter(5.0, 5.0, 5.0, kInf), Limiter::Area);
    EXPECT_EQ(classifyLimiter(5.0, 5.0, 9.0, kInf), Limiter::Area);
    EXPECT_EQ(classifyLimiter(5.0, 9.0, 5.0, kInf), Limiter::Area);
    EXPECT_EQ(classifyLimiter(9.0, 5.0, 5.0, kInf), Limiter::Bandwidth);
    EXPECT_EQ(classifyLimiter(9.0, 5.0, 4.0, kInf), Limiter::Bandwidth);
    EXPECT_EQ(classifyLimiter(9.0, 4.0, 5.0, kInf), Limiter::Power);
}

TEST(BoundsTest, DynamicOptimizerAgreesWithParallelBoundOnTies)
{
    // Regression: optimizeDynamicCmp carried its own copy of the
    // limiter classification, which could drift from parallelBound's
    // on exact ties. Both now call classifyLimiter; pin a power ==
    // bandwidth tie and check they report the same binding constraint.
    Organization dyn = dynamicCmp();
    Budget b = budget(30.0, 12.0, 12.0);
    ParallelBound pb = parallelBound(dyn, 1.0, b, kAlpha);
    EXPECT_EQ(pb.limiter, Limiter::Bandwidth);
    DesignPoint dp = optimizeDynamicCmp(dyn, 0.9, b, {});
    ASSERT_TRUE(dp.feasible);
    EXPECT_EQ(dp.limiter, pb.limiter);
    // And the area-tie case: area == power == bandwidth -> Area.
    Budget tie = budget(7.0, 7.0, 7.0);
    EXPECT_EQ(parallelBound(dyn, 1.0, tie, kAlpha).limiter,
              Limiter::Area);
    EXPECT_EQ(optimizeDynamicCmp(dyn, 0.9, tie, {}).limiter,
              Limiter::Area);
}

TEST(BoundsTest, ParallelBoundTakesTheMinimum)
{
    Organization o = het(2.0, 0.5);
    double r = 2.0;
    Budget b = budget(30.0, 10.0, 40.0);
    ParallelBound pb = parallelBound(o, r, b, kAlpha);
    double expect = std::min({30.0, 10.0 / 0.5 + r, 40.0 / 2.0 + r});
    EXPECT_NEAR(pb.n, expect, 1e-12);
}

TEST(BoundsTest, DynamicBoundsAreFlat)
{
    Organization dyn = dynamicCmp();
    EXPECT_DOUBLE_EQ(powerBoundN(dyn, 1.0, budget(1e9, 42.0, 1e9), kAlpha),
                     42.0);
    EXPECT_DOUBLE_EQ(bandwidthBoundN(dyn, 1.0, budget(1e9, 1e9, 17.0)),
                     17.0);
}

TEST(BoundsTest, LimiterNames)
{
    EXPECT_EQ(limiterName(Limiter::Area), "area");
    EXPECT_EQ(limiterName(Limiter::Power), "power");
    EXPECT_EQ(limiterName(Limiter::Bandwidth), "bandwidth");
}

/** Property sweep over r: each organization's bound formula satisfies
 *  its defining physical identity. */
class BoundIdentity : public ::testing::TestWithParam<double>
{
};

TEST_P(BoundIdentity, PowerExhaustsBudget)
{
    double r = GetParam();
    Budget b = budget(1e9, 14.0, 1e9);
    // Symmetric: (n/r) r^(alpha/2) = P.
    double n_sym = powerBoundN(symmetricCmp(), r, b, kAlpha);
    EXPECT_NEAR((n_sym / r) * std::pow(r, kAlpha / 2.0), 14.0, 1e-9);
    // Offload: (n - r) * 1 = P.
    double n_asym = powerBoundN(asymmetricCmp(), r, b, kAlpha);
    EXPECT_NEAR(n_asym - r, 14.0, 1e-9);
    // Het: (n - r) * phi = P.
    double n_het = powerBoundN(het(5.0, 0.6), r, b, kAlpha);
    EXPECT_NEAR((n_het - r) * 0.6, 14.0, 1e-9);
}

TEST_P(BoundIdentity, BandwidthExhaustsBudget)
{
    double r = GetParam();
    Budget b = budget(1e9, 1e9, 25.0);
    double n_sym = bandwidthBoundN(symmetricCmp(), r, b);
    EXPECT_NEAR((n_sym / r) * std::sqrt(r), 25.0, 1e-9);
    double n_het = bandwidthBoundN(het(5.0, 0.6), r, b);
    EXPECT_NEAR((n_het - r) * 5.0, 25.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(CoreSizes, BoundIdentity,
                         ::testing::Values(1.0, 2.0, 4.0, 8.0, 16.0));

} // namespace
} // namespace core
} // namespace hcm
