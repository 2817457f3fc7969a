/** @file Tests for the parallelism-profile extension. */

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "amdahl/multicore.hh"
#include "core/profile.hh"

namespace hcm {
namespace core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Organization
het(double mu, double phi)
{
    Organization o;
    o.kind = OrgKind::Heterogeneous;
    o.name = "test-ucore";
    o.ucore = UCoreParams{mu, phi};
    return o;
}

TEST(ProfileTest, ValidatesSegments)
{
    EXPECT_DEATH(ParallelismProfile({{0.5, 1.0}}), "sum");
    EXPECT_DEATH(ParallelismProfile({{1.0, 0.5}}), "width");
    EXPECT_DEATH(ParallelismProfile({}), "at least one");
}

TEST(ProfileTest, UniformProfileStatistics)
{
    ParallelismProfile p = ParallelismProfile::uniform(0.9);
    EXPECT_NEAR(p.parallelFraction(), 0.9, 1e-12);
    ASSERT_EQ(p.segments().size(), 2u);
    EXPECT_DOUBLE_EQ(p.segments()[0].width, 1.0);
    EXPECT_TRUE(std::isinf(p.segments()[1].width));
}

TEST(ProfileTest, GeometricLadder)
{
    ParallelismProfile p =
        ParallelismProfile::geometric(0.8, 4, 4.0, 2.0);
    ASSERT_EQ(p.segments().size(), 5u);
    EXPECT_NEAR(p.parallelFraction(), 0.8, 1e-12);
    EXPECT_DOUBLE_EQ(p.segments()[1].width, 4.0);
    EXPECT_DOUBLE_EQ(p.segments()[4].width, 32.0);
}

TEST(ProfileTest, AllSerialProfileHasWidthOne)
{
    ParallelismProfile p = ParallelismProfile::uniform(0.0);
    EXPECT_DOUBLE_EQ(p.parallelFraction(), 0.0);
    EXPECT_DOUBLE_EQ(p.segments()[0].width, 1.0);
    EXPECT_DOUBLE_EQ(p.segments()[0].fraction, 1.0);
}

TEST(ProfileTest, UniformReducesToClassicHeterogeneous)
{
    // With ample width the profiled model is exactly Section 3.3
    // (fabric faster than the core at these design points).
    for (double f : {0.5, 0.9, 0.99}) {
        ParallelismProfile p = ParallelismProfile::uniform(f);
        Organization o = het(27.4, 0.79);
        double got = profiledSpeedup(o, p, 4.0, 20.0);
        double expect = model::speedupHeterogeneous(f, 20.0, 4.0, 27.4);
        EXPECT_NEAR(got / expect, 1.0, 1e-12) << "f=" << f;
    }
}

TEST(ProfileTest, UniformReducesToClassicSymmetric)
{
    ParallelismProfile p = ParallelismProfile::uniform(0.9);
    double got = profiledSpeedup(symmetricCmp(), p, 4.0, 64.0);
    double expect = model::speedupSymmetric(0.9, 64.0, 4.0);
    EXPECT_NEAR(got / expect, 1.0, 1e-12);
}

TEST(ProfileTest, NarrowWidthCapsTheFabric)
{
    // A width-8 segment can use at most 8 tiles, whatever n is.
    ParallelismProfile p({{0.1, 1.0}, {0.9, 8.0}});
    Organization o = het(10.0, 1.0);
    double s_small = profiledSpeedup(o, p, 1.0, 16.0);
    double s_large = profiledSpeedup(o, p, 1.0, 1600.0);
    EXPECT_NEAR(s_small, s_large, 1e-9); // extra area is useless
    double expect = 1.0 / (0.1 / 1.0 + 0.9 / (10.0 * 8.0));
    EXPECT_NEAR(s_small, expect, 1e-12);
}

TEST(ProfileTest, SerialSegmentsStayOnTheCore)
{
    // Even a mu=489 fabric does not accelerate width-1 segments.
    ParallelismProfile p({{1.0, 1.0}});
    Organization o = het(489.0, 4.96);
    EXPECT_NEAR(profiledSpeedup(o, p, 9.0, 20.0), 3.0, 1e-12);
}

TEST(ProfileTest, WiderProfilesNeverSlower)
{
    Organization o = het(3.41, 0.74);
    double prev = 0.0;
    for (double width : {2.0, 4.0, 16.0, 64.0, 1e6}) {
        ParallelismProfile p({{0.1, 1.0}, {0.9, width}});
        double s = profiledSpeedup(o, p, 2.0, 40.0);
        EXPECT_GE(s, prev);
        prev = s;
    }
}

TEST(ProfileTest, SuitabilityFlipsWithNarrowness)
{
    // The paper's future-work motivation: a many-slow-tile fabric wants
    // wide parallelism; with narrow profiles a fabric with the same
    // per-tile speed gains nothing from its extra area. Compare a chip
    // whose fabric has mu = 2 against one with mu = 8 under a width cap
    // that both saturate: the mu advantage shrinks from 4x to the
    // width-capped regime where both run at mu * width.
    ParallelismProfile narrow({{0.001, 1.0}, {0.999, 4.0}});
    Organization slow = het(2.0, 1.0);
    Organization fast = het(8.0, 1.0);
    double s_slow = profiledSpeedup(slow, narrow, 1.0, 100.0);
    double s_fast = profiledSpeedup(fast, narrow, 1.0, 100.0);
    // Both saturate at width 4: ratio tracks mu but the absolute values
    // are far below the unbounded case.
    ParallelismProfile wide({{0.001, 1.0},
                             {0.999, std::numeric_limits<double>::
                                         infinity()}});
    EXPECT_LT(s_fast, profiledSpeedup(fast, wide, 1.0, 100.0) * 0.2);
    EXPECT_GT(s_fast, s_slow);
}

TEST(ProfileTest, OptimizeProfiledHonorsBounds)
{
    Budget b{20.0, 9.0, 40.0};
    ParallelismProfile p = ParallelismProfile::geometric(0.9, 3, 8.0,
                                                         4.0);
    DesignPoint dp = optimizeProfiled(het(5.0, 0.6), p, b);
    ASSERT_TRUE(dp.feasible);
    EXPECT_LE(dp.n, 20.0 + 1e-9);
    EXPECT_GE(dp.r, 1.0);
    EXPECT_GT(dp.speedup, 1.0);
}

TEST(ProfileTest, OptimizeProfiledMatchesClassicOnUniform)
{
    Budget b{50.0, 12.0, 60.0};
    Organization o = het(3.41, 0.74);
    DesignPoint profiled =
        optimizeProfiled(o, ParallelismProfile::uniform(0.99), b);
    DesignPoint classic = optimize(o, 0.99, b);
    ASSERT_TRUE(profiled.feasible && classic.feasible);
    EXPECT_NEAR(profiled.speedup / classic.speedup, 1.0, 1e-6);
    EXPECT_DOUBLE_EQ(profiled.r, classic.r);
}

TEST(ProfileTest, UniformProfileMatchesOptimizeOnEveryForm)
{
    // The two-point profile is the classic model, so optimizeProfiled()
    // must return optimize()'s design for every form: Cores, Offload
    // (the unit-tile asymmetric CMP and a drawn U-core) and Dynamic.
    std::mt19937_64 rng(20101204);
    std::uniform_real_distribution<double> area(1.0, 13.0);
    std::uniform_real_distribution<double> power(0.5, 200.0);
    std::uniform_real_distribution<double> bandwidth(1.0, 300.0);
    std::uniform_real_distribution<double> fraction(0.0, 1.0);
    std::uniform_real_distribution<double> mu(0.5, 50.0);
    std::uniform_real_distribution<double> phi(0.2, 5.0);
    for (int draw = 0; draw < 2000; ++draw) {
        Budget b{area(rng), power(rng), bandwidth(rng)};
        double f = draw % 100 == 0 ? (draw % 200 == 0 ? 0.0 : 1.0)
                                   : fraction(rng);
        std::vector<Organization> orgs = {symmetricCmp(), asymmetricCmp(),
                                          dynamicCmp(),
                                          het(mu(rng), phi(rng))};
        for (const Organization &o : orgs) {
            DesignPoint want = optimize(o, f, b);
            DesignPoint got =
                optimizeProfiled(o, ParallelismProfile::uniform(f), b);
            std::string where = o.name + " draw " + std::to_string(draw) +
                                " f=" + std::to_string(f) +
                                " A=" + std::to_string(b.area) +
                                " P=" + std::to_string(b.power) +
                                " B=" + std::to_string(b.bandwidth);
            ASSERT_EQ(got.feasible, want.feasible) << where;
            if (!want.feasible)
                continue;
            EXPECT_EQ(got.r, want.r) << where;
            EXPECT_EQ(got.n, want.n) << where;
            EXPECT_EQ(got.speedup, want.speedup) << where;
            EXPECT_EQ(got.limiter, want.limiter) << where;
        }
    }
}

TEST(ProfileTest, InfeasibleBudgetsReportInfeasible)
{
    Budget b{20.0, 0.5, 40.0};
    DesignPoint dp = optimizeProfiled(het(5.0, 0.6),
                                      ParallelismProfile::uniform(0.9),
                                      b);
    EXPECT_FALSE(dp.feasible);
}

} // namespace
} // namespace core
} // namespace hcm
