/** @file Tests for the Figure 2 FFT performance model. */

#include <cmath>

#include <gtest/gtest.h>

#include "devices/measured.hh"
#include "devices/perf_model.hh"

namespace hcm {
namespace dev {
namespace {

/** Table 5's entry for (@p device, @p w); nullptr when it has none. */
const PublishedUCore *
published(DeviceId device, const wl::Workload &w)
{
    for (const PublishedUCore &p : publishedTable5())
        if (p.device == device && p.workload == w)
            return &p;
    return nullptr;
}

TEST(PerfModelTest, FigureSizesSpan4To20)
{
    auto sizes = FftPerfModel::figureSizes();
    ASSERT_EQ(sizes.size(), 17u);
    EXPECT_EQ(sizes.front(), 16u);
    EXPECT_EQ(sizes.back(), 1u << 20);
}

TEST(PerfModelTest, MeasuredRangesMatchFigure3Axes)
{
    auto i7 = FftPerfModel::measuredSizes(DeviceId::CoreI7);
    EXPECT_EQ(i7.front(), 1u << 5);
    EXPECT_EQ(i7.back(), 1u << 19);
    auto asic = FftPerfModel::measuredSizes(DeviceId::Asic);
    EXPECT_EQ(asic.front(), 1u << 5);
    EXPECT_EQ(asic.back(), 1u << 13);
    auto fpga = FftPerfModel::measuredSizes(DeviceId::Lx760);
    EXPECT_EQ(fpga.back(), 1u << 14);
    auto g480 = FftPerfModel::measuredSizes(DeviceId::Gtx480);
    EXPECT_EQ(g480.back(), 1u << 20);
    EXPECT_DEATH(FftPerfModel::measuredSizes(DeviceId::R5870),
                 "no FFT");
}

TEST(PerfModelTest, FigureDevicesExcludeR5870)
{
    auto devices = FftPerfModel::figureDevices();
    EXPECT_EQ(devices.size(), 5u);
    for (DeviceId id : devices)
        EXPECT_NE(id, DeviceId::R5870);
}

TEST(PerfModelTest, CurvePassesThroughAnchors)
{
    for (DeviceId id : FftPerfModel::figureDevices()) {
        FftPerfModel model(id);
        for (std::size_t n : table5FftSizes()) {
            double expect = MeasurementDb::instance()
                                .get(id, wl::Workload::fft(n))
                                .perf.value();
            EXPECT_NEAR(model.perfAt(n).value() / expect, 1.0, 1e-9)
                << deviceName(id) << " N=" << n;
        }
    }
}

TEST(PerfModelTest, CurveIsPositiveEverywhere)
{
    for (DeviceId id : FftPerfModel::figureDevices()) {
        FftPerfModel model(id);
        for (std::size_t n : FftPerfModel::figureSizes())
            EXPECT_GT(model.perfAt(n).value(), 0.0)
                << deviceName(id) << " N=" << n;
    }
}

TEST(PerfModelTest, GpusSagAtTinyTransforms)
{
    FftPerfModel gpu(DeviceId::Gtx285);
    double tiny = gpu.perfAt(16).value();
    double anchor = gpu.perfAt(64).value();
    EXPECT_LT(tiny, 0.7 * anchor);

    // The ASIC streaming pipeline stays nearly flat at the small end.
    FftPerfModel asic(DeviceId::Asic);
    EXPECT_GT(asic.perfAt(16).value(), 0.9 * asic.perfAt(64).value());
}

TEST(PerfModelTest, AreaNormalizedOrderingMatchesFigure2)
{
    // At every plotted size: ASIC >> (GPU, FPGA) >> CPU per mm^2.
    FftPerfModel asic(DeviceId::Asic);
    FftPerfModel fpga(DeviceId::Lx760);
    FftPerfModel gpu(DeviceId::Gtx285);
    FftPerfModel cpu(DeviceId::CoreI7);
    for (std::size_t n : FftPerfModel::figureSizes()) {
        EXPECT_GT(asic.perfPerMm2At(n), 10.0 * gpu.perfPerMm2At(n))
            << "N=" << n;
        EXPECT_GT(gpu.perfPerMm2At(n), cpu.perfPerMm2At(n)) << "N=" << n;
        EXPECT_GT(fpga.perfPerMm2At(n), cpu.perfPerMm2At(n)) << "N=" << n;
    }
}

TEST(PerfModelTest, AreaNormalizationUsesMeasurementArea)
{
    FftPerfModel model(DeviceId::Gtx285);
    double expect = model.perfAt(1024).value() / model.area40().value();
    EXPECT_NEAR(model.perfPerMm2At(1024), expect, 1e-9);
}

TEST(PerfModelTest, AsicPerMm2UsesPerSizeAreas)
{
    // The ASIC's synthesized core grows with N; the area-normalized
    // curve must normalize each anchor by its own area, so the ratio
    // to the Core i7 at every anchor is exactly mu * sqrt(2).
    FftPerfModel asic(DeviceId::Asic);
    FftPerfModel cpu(DeviceId::CoreI7);
    const MeasurementDb &db = MeasurementDb::instance();
    for (std::size_t n : table5FftSizes()) {
        double expect_asic = db.get(DeviceId::Asic, wl::Workload::fft(n))
                                 .perfPerMm2();
        EXPECT_NEAR(asic.perfPerMm2At(n) / expect_asic, 1.0, 1e-9)
            << "N=" << n;
        const PublishedUCore *pub =
            published(DeviceId::Asic, wl::Workload::fft(n));
        ASSERT_TRUE(pub);
        EXPECT_NEAR(asic.perfPerMm2At(n) / cpu.perfPerMm2At(n) /
                        (pub->mu * std::sqrt(2.0)),
                    1.0, 1e-9)
            << "N=" << n;
    }
}

TEST(PerfModelDeathTest, R5870HasNoFftModel)
{
    EXPECT_DEATH(FftPerfModel(DeviceId::R5870), "no FFT measurements");
}

TEST(PerfModelDeathTest, RejectsNonPowerOfTwoQueries)
{
    FftPerfModel model(DeviceId::CoreI7);
    EXPECT_DEATH(model.perfAt(1000), "power of two");
}

} // namespace
} // namespace dev
} // namespace hcm
