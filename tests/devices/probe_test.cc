/** @file Tests for the simulated current probe and the Section 4.2
 *  uncore-subtraction methodology. */

#include <gtest/gtest.h>

#include "devices/probe.hh"

namespace hcm {
namespace dev {
namespace {

TEST(ProbeTest, NoiselessProbeMatchesModelExactly)
{
    CurrentProbe probe(DeviceId::Gtx285, 0.0);
    PowerBreakdown truth = probe.model().breakdownAt(1024);
    EXPECT_DOUBLE_EQ(probe.sampleTotal(1024).value(),
                     truth.total().value());
    EXPECT_DOUBLE_EQ(probe.sampleMemoryStress(1024).value(),
                     (truth.uncoreStatic + truth.unknown +
                      truth.uncoreDynamic).value());
}

TEST(ProbeTest, NoisySamplesStayWithinAmplitude)
{
    CurrentProbe probe(DeviceId::CoreI7, 0.02, 99);
    double truth = probe.model().breakdownAt(1024).total().value();
    for (int i = 0; i < 200; ++i) {
        double s = probe.sampleTotal(1024).value();
        EXPECT_GE(s, truth * 0.98 - 1e-9);
        EXPECT_LE(s, truth * 1.02 + 1e-9);
    }
}

TEST(ProbeTest, SameSeedReproducesSamples)
{
    CurrentProbe a(DeviceId::Gtx480, 0.01, 7);
    CurrentProbe b(DeviceId::Gtx480, 0.01, 7);
    for (int i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(a.sampleTotal(256).value(),
                         b.sampleTotal(256).value());
}

TEST(ProbeDeathTest, RejectsAbsurdNoise)
{
    EXPECT_DEATH(CurrentProbe(DeviceId::CoreI7, 0.9), "noise");
}

/** The subtraction methodology recovers core power on every device that
 *  Figure 3 plots, within averaging tolerance. */
class SubtractionRecovers : public ::testing::TestWithParam<DeviceId>
{
};

TEST_P(SubtractionRecovers, CorePowerWithinTwoPercent)
{
    CurrentProbe probe(GetParam(), 0.01, 12345);
    UncoreSubtraction method(probe, 64);
    for (std::size_t n : {64u, 1024u, 16384u}) {
        double truth = probe.model().breakdownAt(n).core().value();
        double est = method.estimateCorePower(n).value();
        EXPECT_NEAR(est / truth, 1.0, 0.02)
            << dev::deviceName(GetParam()) << " N=" << n;
    }
}

TEST_P(SubtractionRecovers, UncoreDynamicWithinTolerance)
{
    // Averaged memory-stress samples minus the static floor (idle
    // uncore and unknown residual) recover the uncore's dynamic power.
    CurrentProbe probe(GetParam(), 0.01, 54321);
    std::size_t n = 16384;
    PowerBreakdown b = probe.model().breakdownAt(n);
    double stress = 0.0;
    for (int i = 0; i < 64; ++i)
        stress += probe.sampleMemoryStress(n).value() / 64;
    double est = stress - (b.uncoreStatic + b.unknown).value();
    // Absolute tolerance: averaged noise leaves ~1% of the total as
    // residual error.
    EXPECT_NEAR(est, b.uncoreDynamic.value(), 0.02 * b.total().value());
}

INSTANTIATE_TEST_SUITE_P(
    Figure3Devices, SubtractionRecovers,
    ::testing::Values(DeviceId::CoreI7, DeviceId::Gtx285, DeviceId::Gtx480,
                      DeviceId::Lx760, DeviceId::Asic),
    [](const ::testing::TestParamInfo<DeviceId> &info) {
        std::string name = deviceName(info.param);
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
} // namespace dev
} // namespace hcm
