/** @file Tests for the measurement database (Table 4 + FFT anchors). */

#include <gtest/gtest.h>

#include "devices/measured.hh"

namespace hcm {
namespace dev {
namespace {

const MeasurementDb &db = MeasurementDb::instance();

/** Table 5's entry for (@p device, @p w); nullptr when it has none. */
const PublishedUCore *
published(DeviceId device, const wl::Workload &w)
{
    for (const PublishedUCore &p : publishedTable5())
        if (p.device == device && p.workload == w)
            return &p;
    return nullptr;
}

TEST(MeasuredTest, Table4MmmRowsReproduce)
{
    struct Expect
    {
        DeviceId id;
        double perf, per_mm2, per_joule;
    };
    // Table 4 (GFLOP/s, GFLOP/s/mm^2, GFLOP/J).
    const Expect rows[] = {
        {DeviceId::CoreI7, 96, 0.50, 1.14},
        {DeviceId::Gtx285, 425, 2.40, 6.78},
        {DeviceId::Gtx480, 541, 1.28, 3.52},
        {DeviceId::R5870, 1491, 5.95, 9.87},
        {DeviceId::Lx760, 204, 0.53, 3.62},
        {DeviceId::Asic, 694, 19.28, 50.73},
    };
    for (const Expect &e : rows) {
        auto m = db.find(e.id, wl::Workload::mmm());
        ASSERT_TRUE(m) << deviceName(e.id);
        EXPECT_NEAR(m->perf.value() / e.perf, 1.0, 1e-9);
        EXPECT_NEAR(m->perfPerMm2() / e.per_mm2, 1.0, 0.02)
            << deviceName(e.id);
        EXPECT_NEAR(m->perfPerWatt().value() / e.per_joule, 1.0, 0.01)
            << deviceName(e.id);
    }
}

TEST(MeasuredTest, Table4BsRowsReproduce)
{
    struct Expect
    {
        DeviceId id;
        double mopts, per_mm2, per_joule;
    };
    const Expect rows[] = {
        {DeviceId::CoreI7, 487, 2.52, 4.88},
        {DeviceId::Gtx285, 10756, 60.72, 189},
        {DeviceId::Lx760, 7800, 20.26, 138},
        {DeviceId::Asic, 25532, 1719, 642.5},
    };
    for (const Expect &e : rows) {
        auto m = db.find(e.id, wl::Workload::blackScholes());
        ASSERT_TRUE(m) << deviceName(e.id);
        // Stored in Gopts/s; Table 4 reports Mopts.
        EXPECT_NEAR(m->perf.value() * 1000.0 / e.mopts, 1.0, 1e-9);
        EXPECT_NEAR(m->perfPerMm2() * 1000.0 / e.per_mm2, 1.0, 0.02)
            << deviceName(e.id);
        EXPECT_NEAR(m->perfPerWatt().value() * 1000.0 / e.per_joule, 1.0,
                    0.01)
            << deviceName(e.id);
    }
}

TEST(MeasuredTest, MissingPairsAreAbsent)
{
    // The paper could not obtain these (Section 4.1).
    EXPECT_FALSE(db.find(DeviceId::R5870, wl::Workload::fft(1024)));
    EXPECT_FALSE(db.find(DeviceId::R5870, wl::Workload::blackScholes()));
    EXPECT_FALSE(db.find(DeviceId::Gtx480, wl::Workload::blackScholes()));
}

TEST(MeasuredTest, FftAnchorsPresentForFiveDevices)
{
    const DeviceId with_fft[] = {DeviceId::CoreI7, DeviceId::Gtx285,
                                 DeviceId::Gtx480, DeviceId::Lx760,
                                 DeviceId::Asic};
    for (std::size_t size : table5FftSizes())
        for (DeviceId id : with_fft)
            EXPECT_TRUE(db.find(id, wl::Workload::fft(size)))
                << deviceName(id) << " FFT-" << size;
}

TEST(MeasuredTest, AllEntriesArePositiveAndFinite)
{
    for (const Measurement &m : db.all()) {
        EXPECT_GT(m.perf.value(), 0.0);
        EXPECT_GT(m.area40.value(), 0.0);
        EXPECT_GT(m.power40.value(), 0.0);
    }
    EXPECT_GE(db.all().size(), 23u);
}

TEST(MeasuredTest, GetPanicsOnMissingPair)
{
    EXPECT_DEATH(db.get(DeviceId::R5870, wl::Workload::blackScholes()),
                 "no measurement");
}

TEST(MeasuredTest, ForWorkloadPreservesDeviceOrder)
{
    auto rows = db.forWorkload(wl::Workload::mmm());
    ASSERT_EQ(rows.size(), 6u);
    EXPECT_EQ(rows.front().device, DeviceId::CoreI7);
    EXPECT_EQ(rows.back().device, DeviceId::Asic);
}

TEST(MeasuredTest, PublishedTable5HasTwentyEntries)
{
    EXPECT_EQ(publishedTable5().size(), 20u);
    const PublishedUCore *p = published(DeviceId::Asic, wl::Workload::fft(64));
    ASSERT_TRUE(p);
    EXPECT_DOUBLE_EQ(p->mu, 733.0);
    EXPECT_DOUBLE_EQ(p->phi, 5.34);
    EXPECT_FALSE(published(DeviceId::CoreI7, wl::Workload::mmm()));
}

TEST(MeasuredTest, AsicIsTheEfficiencyLeaderOnEveryWorkload)
{
    // Section 5: ASIC ~100x the flexible cores in area-normalized perf
    // and ~10x in energy efficiency.
    for (const wl::Workload &w : table5Workloads()) {
        auto asic = db.find(DeviceId::Asic, w);
        ASSERT_TRUE(asic);
        for (const Measurement &m : db.forWorkload(w)) {
            if (m.device == DeviceId::Asic)
                continue;
            EXPECT_GT(asic->perfPerMm2(), m.perfPerMm2())
                << w.name() << " vs " << deviceName(m.device);
            EXPECT_GT(asic->perfPerWatt().value(),
                      m.perfPerWatt().value())
                << w.name() << " vs " << deviceName(m.device);
        }
    }
}

TEST(MeasuredTest, AsicFftAreaNormalizedGapMatchesPaper)
{
    // "ASIC FFT cores achieve nearly 100X improvement over the flexible
    // cores and nearly 1000X over the Core i7" (area-normalized).
    auto asic = db.get(DeviceId::Asic, wl::Workload::fft(1024));
    auto i7 = db.get(DeviceId::CoreI7, wl::Workload::fft(1024));
    auto gtx = db.get(DeviceId::Gtx285, wl::Workload::fft(1024));
    double vs_i7 = asic.perfPerMm2() / i7.perfPerMm2();
    double vs_gpu = asic.perfPerMm2() / gtx.perfPerMm2();
    EXPECT_GT(vs_i7, 300.0);
    EXPECT_LT(vs_i7, 3000.0);
    EXPECT_GT(vs_gpu, 50.0);
    EXPECT_LT(vs_gpu, 500.0);
}

} // namespace
} // namespace dev
} // namespace hcm
