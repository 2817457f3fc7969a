/** @file Tests for the design-point optimizer. */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "amdahl/multicore.hh"
#include "amdahl/pollack.hh"
#include "core/optimizer.hh"

namespace hcm {
namespace core {
namespace {

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

TEST(OptimizerTest, SerialWorkloadMaximizesTheCore)
{
    // f = 0: speedup = sqrt(r); pick the largest r the budgets allow.
    Budget b = budget(100.0, 1e9, 1e9);
    DesignPoint dp = optimize(symmetricCmp(), 0.0, b);
    ASSERT_TRUE(dp.feasible);
    EXPECT_DOUBLE_EQ(dp.r, 16.0); // rMax default
    EXPECT_NEAR(dp.speedup, 4.0, 1e-12);
}

TEST(OptimizerTest, SerialPowerBoundCapsTheCore)
{
    // P = 8: r <= 8^(2/1.75) ~ 10.76.
    Budget b = budget(100.0, 8.0, 1e9);
    DesignPoint dp = optimize(asymmetricCmp(), 0.0, b);
    ASSERT_TRUE(dp.feasible);
    EXPECT_NEAR(dp.r, std::pow(8.0, 2.0 / 1.75), 1e-9);
    EXPECT_NEAR(model::powerSeq(dp.r), 8.0, 1e-6);
}

TEST(OptimizerTest, SerialBandwidthBoundCapsTheCore)
{
    Budget b = budget(100.0, 1e9, 3.0);
    DesignPoint dp = optimize(asymmetricCmp(), 0.0, b);
    EXPECT_NEAR(dp.r, 9.0, 1e-9);
}

TEST(OptimizerTest, InfeasibleWhenSerialBoundsBelowOneBce)
{
    Budget b = budget(100.0, 0.5, 1e9); // r^0.875 <= 0.5 has no r >= 1
    DesignPoint dp = optimize(symmetricCmp(), 0.9, b);
    EXPECT_FALSE(dp.feasible);
    EXPECT_DOUBLE_EQ(dp.speedup, 0.0);
}

TEST(OptimizerTest, FullyParallelHetPrefersSmallCore)
{
    // f ~ 1: every BCE spent on the core is stolen from the U-cores.
    Budget b = budget(20.0, 1e9, 1e9);
    DesignPoint dp = optimize(het(10.0, 1.0), 0.9999, b);
    ASSERT_TRUE(dp.feasible);
    EXPECT_DOUBLE_EQ(dp.r, 1.0);
    EXPECT_EQ(dp.limiter, Limiter::Area);
    EXPECT_DOUBLE_EQ(dp.n, 20.0);
}

TEST(OptimizerTest, ModerateParallelismBalancesTheCore)
{
    Budget b = budget(64.0, 1e9, 1e9);
    DesignPoint dp = optimize(het(4.0, 1.0), 0.9, b);
    ASSERT_TRUE(dp.feasible);
    EXPECT_GT(dp.r, 1.0);
    EXPECT_LT(dp.r, 16.0 + 1e-9);
    // The optimum beats both extremes of the sweep.
    EXPECT_GE(dp.speedup, evaluateSpeedup(het(4.0, 1.0), 0.9, 1.0, 64.0));
    EXPECT_GE(dp.speedup,
              evaluateSpeedup(het(4.0, 1.0), 0.9, 16.0, 64.0));
}

TEST(OptimizerTest, BandwidthLimitedHetSpeedupIsCapped)
{
    // Bandwidth-bound parallel perf = mu (n - r) = B regardless of mu.
    Budget b = budget(1000.0, 1e9, 50.0);
    DesignPoint fast = optimize(het(100.0, 1.0), 0.99, b);
    DesignPoint faster = optimize(het(1000.0, 1.0), 0.99, b);
    ASSERT_TRUE(fast.feasible && faster.feasible);
    EXPECT_EQ(fast.limiter, Limiter::Bandwidth);
    EXPECT_EQ(faster.limiter, Limiter::Bandwidth);
    EXPECT_NEAR(fast.speedup, faster.speedup, fast.speedup * 0.01);
}

TEST(OptimizerTest, BandwidthExemptionUnlocksTheCap)
{
    Budget b = budget(1000.0, 1e9, 50.0);
    DesignPoint bound = optimize(het(100.0, 1.0), 0.99, b);
    DesignPoint exempt = optimize(het(100.0, 1.0, true), 0.99, b);
    EXPECT_GT(exempt.speedup, 5.0 * bound.speedup);
}

TEST(OptimizerTest, ContinuousRefinementNeverLoses)
{
    Budget b = budget(64.0, 9.0, 40.0);
    for (double f : {0.5, 0.9, 0.99}) {
        OptimizerOptions discrete;
        OptimizerOptions continuous;
        continuous.continuousR = true;
        double s_d = optimize(het(3.0, 0.6), f, b, discrete).speedup;
        double s_c = optimize(het(3.0, 0.6), f, b, continuous).speedup;
        EXPECT_GE(s_c, s_d - 1e-9) << "f=" << f;
    }
}

TEST(OptimizerTest, MinEnergyObjectivePicksTheSmallCore)
{
    // Serial energy grows as r^((alpha-1)/2); energy-optimal r is 1.
    Budget b = budget(64.0, 1e9, 1e9);
    OptimizerOptions opts;
    opts.objective = Objective::MinEnergy;
    DesignPoint dp = optimize(het(10.0, 0.8), 0.9, b, opts);
    ASSERT_TRUE(dp.feasible);
    EXPECT_DOUBLE_EQ(dp.r, 1.0);
    DesignPoint perf = optimize(het(10.0, 0.8), 0.9, b);
    EXPECT_LE(dp.energy.total(), perf.energy.total());
    EXPECT_LE(dp.speedup, perf.speedup);
}

TEST(OptimizerTest, DynamicTakesTheTightestBudget)
{
    Organization dyn = dynamicCmp();
    DesignPoint dp = optimize(dyn, 0.9, budget(30.0, 12.0, 50.0));
    ASSERT_TRUE(dp.feasible);
    EXPECT_DOUBLE_EQ(dp.n, 12.0);
    EXPECT_EQ(dp.limiter, Limiter::Power);
    EXPECT_NEAR(dp.speedup, model::speedupDynamic(0.9, 12.0), 1e-12);
}

TEST(OptimizerTest, RMaxIsRespected)
{
    Budget b = budget(1000.0, 1e9, 1e9);
    OptimizerOptions opts;
    opts.rMax = 4.0;
    DesignPoint dp = optimize(symmetricCmp(), 0.0, b, opts);
    EXPECT_DOUBLE_EQ(dp.r, 4.0);
}

TEST(OptimizerTest, RCandidateGridCoversIntegersPlusFractionalCap)
{
    EXPECT_EQ(rCandidateGrid(3.5),
              (std::vector<double>{1.0, 2.0, 3.0, 3.5}));
    // An integral cap is not duplicated.
    EXPECT_EQ(rCandidateGrid(3.0), (std::vector<double>{1.0, 2.0, 3.0}));
    EXPECT_EQ(rCandidateGrid(1.0), (std::vector<double>{1.0}));
    EXPECT_TRUE(rCandidateGrid(0.5).empty());
    EXPECT_TRUE(rCandidateGrid(-2.0).empty());
}

TEST(OptimizerTest, RCandidateGridClampsNonFiniteAndHugeCaps)
{
    // Regression: an infinite or absurd cap (a bandwidth-exempt
    // organization under an unbounded budget, reaching the grid past
    // opts.rMax) used to loop and allocate without bound, and a NaN cap
    // slipped past the `cap < 1` rejection into back() on an empty
    // vector. Both now clamp to the documented kMaxRGridCap ceiling /
    // an empty grid.
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::vector<double> grid = rCandidateGrid(inf);
    ASSERT_FALSE(grid.empty());
    EXPECT_EQ(grid.size(), static_cast<std::size_t>(kMaxRGridCap));
    EXPECT_DOUBLE_EQ(grid.back(), kMaxRGridCap);

    EXPECT_EQ(rCandidateGrid(1e9), grid);
    EXPECT_EQ(rCandidateGrid(kMaxRGridCap + 0.5), grid);

    EXPECT_TRUE(
        rCandidateGrid(std::numeric_limits<double>::quiet_NaN()).empty());
    EXPECT_TRUE(rCandidateGrid(-inf).empty());

    // Caps below the ceiling are untouched by the clamp.
    EXPECT_EQ(rCandidateGrid(3.5),
              (std::vector<double>{1.0, 2.0, 3.0, 3.5}));
}

TEST(OptimizerTest, ContinuousRefinementEscapesInfeasibilityPlateau)
{
    // Regression: the golden-section refinement used to bracket over
    // the whole [1, cap] range, where the objective is a -1e300 plateau
    // wherever the candidate is infeasible. Here n = 4 for every r, so
    // r > 4 is infeasible and the cap is 16: both initial probes
    // (r ~ 6.7 and ~ 10.3) land on the plateau, the search walks INTO
    // it, and the refinement is silently discarded. The bracket is now
    // the grid neighborhood of the discrete argmax, which contains the
    // true continuous optimum r* = n(1-f)/f = 8/3.
    Budget b = budget(4.0, 60.0, 5.0);
    OptimizerOptions discrete;
    OptimizerOptions continuous;
    continuous.continuousR = true;
    DesignPoint d = optimize(symmetricCmp(), 0.6, b, discrete);
    DesignPoint c = optimize(symmetricCmp(), 0.6, b, continuous);
    ASSERT_TRUE(d.feasible && c.feasible);
    EXPECT_DOUBLE_EQ(d.r, 3.0); // discrete argmax
    // The refinement must actually beat the discrete optimum, not just
    // match it (the old code returned d verbatim).
    EXPECT_GT(c.speedup, d.speedup + 1e-4);
    EXPECT_NEAR(c.r, 8.0 / 3.0, 1e-3);
    EXPECT_NEAR(c.speedup, 2.0412, 1e-3);
}

TEST(OptimizerTest, ContinuousRefinementKeepsEdgeOptimum)
{
    // Regression: the golden-section search returned the midpoint of
    // its last bracket, which can land just past the edge where n < r.
    // The refinement then saw an infeasible r and kept the grid answer.
    // In both cases the optimum sits on that edge, at r = n = A.
    struct Case
    {
        double f, area, power, bandwidth, thermal;
        double grid_r, r, speedup;
    };
    const Case cases[] = {
        {0.33857837674876184, 3.4870387614914233, 40.878085541603717,
         201.87354767590841, 93.798582033248721, 3.0, 3.48704, 1.86736},
        {0.23887618691573334, 1.8558721775346207, 99.518791636086917,
         197.30960897210304, 40.665676426490236, 1.0, 1.85587, 1.36230},
    };
    for (const Case &c : cases) {
        Budget b{c.area, c.power, c.bandwidth, c.thermal};
        OptimizerOptions discrete;
        OptimizerOptions continuous;
        continuous.continuousR = true;
        DesignPoint d = optimize(symmetricCmp(), c.f, b, discrete);
        DesignPoint dp = optimize(symmetricCmp(), c.f, b, continuous);
        ASSERT_TRUE(d.feasible && dp.feasible) << "f=" << c.f;
        EXPECT_DOUBLE_EQ(d.r, c.grid_r) << "f=" << c.f;
        EXPECT_NEAR(dp.r, c.r, 1e-5) << "f=" << c.f;
        EXPECT_NEAR(dp.speedup, c.speedup, 1e-5) << "f=" << c.f;
        EXPECT_GT(dp.speedup, d.speedup + 1e-3) << "f=" << c.f;
    }
}

TEST(OptimizerTest, ParallelHeadroomAppliesToSharedSerialCoreOrgs)
{
    // AsymCMP and HET run the parallel phase beside a serial core, so
    // they need n - r headroom whenever there is parallel work at all;
    // SymCMP's cores are the parallel fabric, so it never does.
    OrgRules ucore(het(10.0, 1.0));
    EXPECT_TRUE(ucore.needsHeadroom(0.5));
    EXPECT_TRUE(OrgRules(asymmetricCmp()).needsHeadroom(0.5));
    EXPECT_FALSE(OrgRules(symmetricCmp()).needsHeadroom(0.5));
    // A fully serial workload has no parallel phase to make room for.
    EXPECT_FALSE(ucore.needsHeadroom(0.0));
    EXPECT_FALSE(OrgRules(asymmetricCmp()).needsHeadroom(0.0));
}

TEST(OptimizerDeathTest, RejectsBadFraction)
{
    EXPECT_DEATH(optimize(symmetricCmp(), 1.5, budget(1, 1, 1)),
                 "outside");
}

/** Property sweep: speedup never decreases when any budget grows. */
class BudgetMonotonicity : public ::testing::TestWithParam<double>
{
};

TEST_P(BudgetMonotonicity, LargerBudgetsNeverHurt)
{
    double f = GetParam();
    Organization o = het(8.0, 0.7);
    double prev = 0.0;
    for (double scale = 1.0; scale <= 16.0; scale *= 2.0) {
        Budget b = budget(10.0 * scale, 5.0 * scale, 8.0 * scale);
        DesignPoint dp = optimize(o, f, b);
        ASSERT_TRUE(dp.feasible);
        EXPECT_GE(dp.speedup, prev - 1e-9) << "scale=" << scale;
        prev = dp.speedup;
    }
}

INSTANTIATE_TEST_SUITE_P(Fractions, BudgetMonotonicity,
                         ::testing::Values(0.0, 0.5, 0.9, 0.99, 0.999,
                                           1.0));

} // namespace
} // namespace core
} // namespace hcm
