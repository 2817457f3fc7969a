/** @file Tests for Pollack's law and the serial power law. */

#include <cmath>

#include <gtest/gtest.h>

#include "amdahl/pollack.hh"

namespace hcm {
namespace model {
namespace {

TEST(PollackTest, SquareRootPerformance)
{
    EXPECT_DOUBLE_EQ(perfSeq(1.0), 1.0);
    EXPECT_DOUBLE_EQ(perfSeq(4.0), 2.0);
    EXPECT_NEAR(perfSeq(2.0), std::sqrt(2.0), 1e-15);
}

TEST(PollackTest, PowerLawAtDefaultAlpha)
{
    // power_seq(r) = r^(alpha/2); alpha = 1.75.
    EXPECT_DOUBLE_EQ(powerSeq(1.0), 1.0);
    EXPECT_NEAR(powerSeq(4.0), std::pow(4.0, 0.875), 1e-12);
    EXPECT_NEAR(powerSeq(2.0, 2.25), std::pow(2.0, 1.125), 1e-12);
}

TEST(PollackTest, PowerForPerfIsSuperLinear)
{
    EXPECT_NEAR(powerForPerf(2.0), std::pow(2.0, 1.75), 1e-12);
    EXPECT_GT(powerForPerf(3.0), 3.0);
}

TEST(PollackTest, SerialPowerCapInvertsThePowerLaw)
{
    for (double p : {1.0, 8.43, 100.0}) {
        double r = maxSerialRForPower(p);
        EXPECT_NEAR(powerSeq(r), p, 1e-9) << "P=" << p;
    }
    // Scenario 6's steeper alpha shrinks the allowed core.
    EXPECT_LT(maxSerialRForPower(10.0, kHighAlpha),
              maxSerialRForPower(10.0, kDefaultAlpha));
}

TEST(PollackTest, SerialBandwidthCapIsBSquared)
{
    EXPECT_DOUBLE_EQ(maxSerialRForBandwidth(3.0), 9.0);
    // perf sqrt(r) at the cap consumes exactly B.
    EXPECT_NEAR(perfSeq(maxSerialRForBandwidth(7.0)), 7.0, 1e-12);
}

TEST(PollackTest, PaperConstants)
{
    EXPECT_DOUBLE_EQ(kDefaultAlpha, 1.75);
    EXPECT_DOUBLE_EQ(kHighAlpha, 2.25);
}

TEST(PollackDeathTest, RejectsBadInputs)
{
    EXPECT_DEATH(perfSeq(0.0), "positive");
    EXPECT_DEATH(powerForPerf(1.0, 0.5), "super-linear");
    EXPECT_DEATH(maxSerialRForPower(0.0), "positive");
}

} // namespace
} // namespace model
} // namespace hcm
