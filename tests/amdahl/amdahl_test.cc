/** @file Tests for Amdahl's law, as the model states it: a symmetric
 *  multicore of unit (r = 1) cores, whose n BCEs speed the parallel
 *  fraction up n-fold. */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "amdahl/multicore.hh"

namespace hcm {
namespace model {
namespace {

/** Amdahl speedup of fraction @p f accelerated @p s-fold. */
double
amdahl(double f, double s)
{
    return speedupSymmetric(f, s, 1.0);
}

/** The asymptote 1 / (1 - f); +inf at f = 1. */
double
amdahlLimit(double f)
{
    return f >= 1.0 ? std::numeric_limits<double>::infinity()
                    : 1.0 / (1.0 - f);
}

TEST(AmdahlTest, TextbookValues)
{
    // 50% accelerated 2x -> 1.333x overall.
    EXPECT_NEAR(amdahl(0.5, 2.0), 4.0 / 3.0, 1e-12);
    // 90% accelerated 10x -> 5.26x.
    EXPECT_NEAR(amdahl(0.9, 10.0), 1.0 / 0.19, 1e-9);
}

TEST(AmdahlTest, NoAccelerationNoSpeedup)
{
    EXPECT_DOUBLE_EQ(amdahl(0.7, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(amdahl(0.0, 100.0), 1.0);
}

TEST(AmdahlTest, FullyParallelScalesLinearly)
{
    EXPECT_DOUBLE_EQ(amdahl(1.0, 64.0), 64.0);
}

TEST(AmdahlTest, LimitIsInverseSerialFraction)
{
    EXPECT_NEAR(amdahl(0.9, 1e15), 10.0, 1e-9);
    EXPECT_NEAR(amdahl(0.99, 1e15), 100.0, 1e-9);
    EXPECT_DOUBLE_EQ(amdahl(0.0, 1e15), 1.0);
    // A fully parallel program has no limit: speedup is the core count.
    EXPECT_DOUBLE_EQ(amdahl(1.0, 1e15), 1e15);
}

TEST(AmdahlTest, SpeedupApproachesLimit)
{
    double s = amdahl(0.99, 1e9);
    EXPECT_NEAR(s, amdahlLimit(0.99), 1e-4);
    EXPECT_LT(s, amdahlLimit(0.99));
}

TEST(AmdahlDeathTest, RejectsBadInputs)
{
    EXPECT_DEATH(amdahl(-0.1, 2.0), "outside");
    EXPECT_DEATH(amdahl(1.1, 2.0), "outside");
    EXPECT_DEATH(speedupSymmetric(0.5, 2.0, 0.0), "positive");
}

/** Property: speedup is monotone in the acceleration factor and stays
 *  under the asymptote. */
class AmdahlMonotone : public ::testing::TestWithParam<double>
{
};

TEST_P(AmdahlMonotone, InAccelerationFactor)
{
    double f = GetParam();
    double prev = 0.0;
    for (double s = 1.0; s <= 4096.0; s *= 2.0) {
        double v = amdahl(f, s);
        EXPECT_GE(v, prev);
        EXPECT_LE(v, amdahlLimit(f) + 1e-12);
        prev = v;
    }
}

INSTANTIATE_TEST_SUITE_P(Fractions, AmdahlMonotone,
                         ::testing::Values(0.0, 0.5, 0.9, 0.99, 0.999,
                                           1.0));

} // namespace
} // namespace model
} // namespace hcm
