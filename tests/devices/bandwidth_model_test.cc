/** @file Tests for the Figure 4 bandwidth model. */

#include <gtest/gtest.h>

#include "devices/bandwidth_model.hh"
#include "workloads/workload.hh"

namespace hcm {
namespace dev {
namespace {

TEST(BandwidthModelTest, Gtx285CompulsoryUntil4k)
{
    // The paper measured compulsory traffic on the GTX285 up to N=2^12.
    FftBandwidthModel m(DeviceId::Gtx285);
    EXPECT_EQ(m.onchipCapacityPoints(), 1u << 12);
    for (std::size_t n = 16; n <= (1u << 12); n *= 2)
        EXPECT_DOUBLE_EQ(m.trafficMultiplier(n), 1.0) << "N=" << n;
    EXPECT_GT(m.trafficMultiplier(1u << 13), 1.0);
}

TEST(BandwidthModelTest, CompulsoryMatchesPerfTimesIntensity)
{
    FftBandwidthModel m(DeviceId::Gtx285);
    FftPerfModel perf(DeviceId::Gtx285);
    std::size_t n = 1024;
    double expect = perf.perfAt(n).value() *
                    wl::Workload::fft(n).bytesPerOp();
    EXPECT_NEAR(m.compulsoryAt(n).value(), expect, 1e-9);
}

TEST(BandwidthModelTest, MeasuredExceedsCompulsoryOutOfCore)
{
    FftBandwidthModel m(DeviceId::Gtx285);
    std::size_t big = 1u << 16;
    EXPECT_GT(m.measuredAt(big).value(), m.compulsoryAt(big).value());
    // In-core only the 2% overhead separates them.
    std::size_t small = 1u << 10;
    EXPECT_NEAR(m.measuredAt(small).value(),
                m.compulsoryAt(small).value() * 1.02, 1e-9);
}

TEST(BandwidthModelTest, Gtx285StaysComputeBoundLikeThePaper)
{
    // Figure 4: measured bandwidth stays below the 159 GB/s peak for all
    // sizes — the device remains compute-bound even out-of-core.
    FftBandwidthModel m(DeviceId::Gtx285);
    for (std::size_t n : FftPerfModel::figureSizes()) {
        EXPECT_TRUE(m.computeBoundAt(n)) << "N=" << n;
        EXPECT_LT(m.measuredAt(n).value(), 159.0) << "N=" << n;
    }
}

TEST(BandwidthModelTest, CapacityOverrideRespected)
{
    FftBandwidthModel tight(DeviceId::Gtx285, 1u << 8);
    EXPECT_EQ(tight.onchipCapacityPoints(), 1u << 8);
    EXPECT_GT(tight.trafficMultiplier(1u << 10), 1.0);
}

TEST(BandwidthModelTest, PassCountGrowsLogarithmically)
{
    FftBandwidthModel m(DeviceId::Gtx285, 1u << 12);
    EXPECT_DOUBLE_EQ(m.trafficMultiplier(1u << 12), 1.0);
    EXPECT_DOUBLE_EQ(m.trafficMultiplier(1u << 13), 2.0);
    EXPECT_DOUBLE_EQ(m.trafficMultiplier(1u << 20), 2.0); // 20/12 -> 2
}

TEST(BandwidthModelTest, DevicesWithoutPeakAreComputeBound)
{
    FftBandwidthModel asic(DeviceId::Asic);
    EXPECT_TRUE(asic.computeBoundAt(1u << 20));
}

TEST(BandwidthModelTest, CapacityDerivationFromOnchipBytes)
{
    // The GTX285's effective ~64 KB of on-chip storage holds two
    // single-precision complex ping-pong buffers (16 B per point) of
    // 2^12 points — the spill point the paper measured (Figure 4).
    std::size_t cap = FftBandwidthModel::defaultCapacity(DeviceId::Gtx285);
    EXPECT_EQ(cap, 1u << 12);
    EXPECT_EQ(16 * cap, 64u * 1024);
}

TEST(BandwidthModelDeathTest, R5870Unsupported)
{
    EXPECT_DEATH(FftBandwidthModel(DeviceId::R5870), "bandwidth model");
}

} // namespace
} // namespace dev
} // namespace hcm
