/** @file Tests for the table/figure report generators behind `hcm table`,
 *  `hcm figure` and `hcm scenarios`. */

#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "report/paper.hh"

namespace hcm {
namespace report {
namespace {

using core::allScenarios;
using core::standardFractions;

TEST(ReportTest, TablesRenderNonEmpty)
{
    EXPECT_EQ(table1Bounds().rowCount(), 5u);
    EXPECT_EQ(table2Devices().rowCount(), 6u);
    EXPECT_EQ(table3Workloads().rowCount(), 3u);
    EXPECT_EQ(table4Baseline().rowCount(), 10u); // 6 MMM + 4 BS
    EXPECT_EQ(table5UCores().rowCount(), 10u);   // 5 devices x (phi, mu)
    EXPECT_EQ(table6Scaling().rowCount(), 7u);
}

TEST(ReportTest, Table4ContainsPublishedNumbers)
{
    std::string t = table4Baseline().render();
    EXPECT_NE(t.find("1491"), std::string::npos);  // R5870 MMM GFLOP/s
    EXPECT_NE(t.find("10756"), std::string::npos); // GTX285 BS Mopts/s
}

TEST(ReportTest, Table5ShowsDashesForMissingEntries)
{
    std::string t = table5UCores().render();
    EXPECT_NE(t.find("-"), std::string::npos);
    EXPECT_NE(t.find("R5870"), std::string::npos);
    EXPECT_NE(t.find("FFT-16384"), std::string::npos);
}

TEST(ReportTest, Table6MatchesScalingModule)
{
    std::string t = table6Scaling().render();
    for (const char *cell : {"432", "100", "298", "0.25", "1.4", "11nm"})
        EXPECT_NE(t.find(cell), std::string::npos) << cell;
}

TEST(ReportTest, Figure2HasTwoPanelsOfFiveSeries)
{
    plot::Figure fig = fig2FftPerf();
    ASSERT_EQ(fig.panels().size(), 2u);
    for (const plot::Panel &p : fig.panels()) {
        EXPECT_EQ(p.series.size(), 5u);
        for (const plot::Series &s : p.series)
            EXPECT_EQ(s.points.size(), 17u); // 2^4 .. 2^20
    }
}

TEST(ReportTest, Figure3OnePanelPerDevice)
{
    plot::Figure fig = fig3FftPower();
    EXPECT_EQ(fig.panels().size(), 5u);
    EXPECT_EQ(fig.panels()[0].series.size(), 6u); // 5 components + total
}

TEST(ReportTest, Figure5SeriesMatchRoadmapShape)
{
    plot::Figure fig = fig5Itrs();
    ASSERT_EQ(fig.panels().size(), 1u);
    ASSERT_EQ(fig.panels()[0].series.size(), 4u);
    // Combined power is the last series; its final value ~0.2.
    const plot::Series &pwr = fig.panels()[0].series[3];
    EXPECT_LT(pwr.points.back().y, 0.3);
    EXPECT_DOUBLE_EQ(pwr.points.front().y, 1.0);
}

TEST(ReportTest, ProjectionFiguresHaveExpectedPanels)
{
    EXPECT_EQ(fig6FftProjection().panels().size(), 4u);
    EXPECT_EQ(fig7MmmProjection().panels().size(), 4u);
    EXPECT_EQ(fig8BsProjection().panels().size(), 2u);
    EXPECT_EQ(fig9Fft1TbProjection().panels().size(), 4u);
    EXPECT_EQ(fig10MmmEnergy().panels().size(), 3u);
}

TEST(ReportTest, Figure6SeriesCarryLimiterStyles)
{
    plot::Figure fig = fig6FftProjection();
    // The f=0.99 panel's ASIC line is bandwidth-limited => solid.
    const plot::Panel &panel = fig.panels()[2];
    bool found = false;
    for (const plot::Series &s : panel.series) {
        if (s.name.find("ASIC") == std::string::npos)
            continue;
        found = true;
        for (const plot::Point &pt : s.points)
            EXPECT_EQ(pt.style, plot::LineStyle::Solid);
    }
    EXPECT_TRUE(found);
}

TEST(ReportTest, Figure4BandwidthPanelShapes)
{
    plot::Figure fig = fig4FftEnergyBandwidth();
    ASSERT_EQ(fig.panels().size(), 2u);
    const plot::Panel &bw = fig.panels()[1];
    ASSERT_EQ(bw.series.size(), 3u);
    // Measured >= compulsory for the GTX285 at every size.
    const plot::Series &comp = bw.series[0];
    const plot::Series &meas = bw.series[1];
    ASSERT_EQ(comp.points.size(), meas.points.size());
    for (std::size_t i = 0; i < comp.points.size(); ++i)
        EXPECT_GE(meas.points[i].y, comp.points[i].y);
    // And below the 159 GB/s peak everywhere (compute-bound).
    for (const plot::Point &p : meas.points)
        EXPECT_LT(p.y, 159.0);
}

TEST(ReportTest, Figure7AsicDominatesEveryPanel)
{
    plot::Figure fig = fig7MmmProjection();
    for (const plot::Panel &panel : fig.panels()) {
        double asic_last = 0.0, best_other = 0.0;
        for (const plot::Series &s : panel.series) {
            double last = s.points.back().y;
            if (s.name.find("ASIC") != std::string::npos)
                asic_last = last;
            else
                best_other = std::max(best_other, last);
        }
        EXPECT_GT(asic_last, best_other) << panel.title;
    }
}

TEST(ReportTest, Figure9PowerLimitedStylesAppear)
{
    // At 1 TB/s the flexible fabrics flip to power-limited (dashed).
    plot::Figure fig = fig9Fft1TbProjection();
    const plot::Panel &panel = fig.panels()[1]; // f = 0.9
    bool dashed_het = false;
    for (const plot::Series &s : panel.series) {
        if (s.name.find("GTX285") == std::string::npos)
            continue;
        for (const plot::Point &pt : s.points)
            if (pt.style == plot::LineStyle::Dashed)
                dashed_het = true;
    }
    EXPECT_TRUE(dashed_het);
}

TEST(ReportTest, Figure10EnergyDecreasesLeftToRight)
{
    plot::Figure fig = fig10MmmEnergy();
    for (const plot::Panel &panel : fig.panels()) {
        for (const plot::Series &s : panel.series) {
            ASSERT_GE(s.points.size(), 2u);
            EXPECT_LT(s.points.back().y, s.points.front().y)
                << panel.title << " " << s.name;
            for (const plot::Point &pt : s.points)
                EXPECT_GT(pt.y, 0.0);
        }
    }
}

TEST(ReportTest, FiguresRenderAsciiWithoutCrashing)
{
    std::ostringstream oss;
    fig6FftProjection().renderAscii(oss);
    fig10MmmEnergy().renderAscii(oss);
    EXPECT_GT(oss.str().size(), 1000u);
}

TEST(ReportTest, FigureFilesRoundTripThroughDisk)
{
    namespace fs = std::filesystem;
    std::string dir =
        (fs::temp_directory_path() / "hcm_report_test").string();
    fs::remove_all(dir);
    fig8BsProjection().writeFiles(dir);
    EXPECT_TRUE(fs::exists(dir + "/fig8.csv"));
    EXPECT_TRUE(fs::exists(dir + "/fig8_panel0.gp"));
    EXPECT_TRUE(fs::exists(dir + "/fig8_panel1.dat"));
    fs::remove_all(dir);
}

TEST(ReportTest, ScenarioSummaryCoversAllScenarios)
{
    TextTable t = scenarioSummary(wl::Workload::fft(1024), 0.9);
    // Baseline + every alternative, including the extension scenarios.
    EXPECT_EQ(t.rowCount(), allScenarios().size());
    std::string text = t.render();
    EXPECT_NE(text.find("bandwidth-1tb"), std::string::npos);
    EXPECT_NE(text.find("alpha-2.25"), std::string::npos);
    EXPECT_NE(text.find("multi-amdahl"), std::string::npos);
    EXPECT_NE(text.find("thermal-85c"), std::string::npos);
    EXPECT_NE(text.find("thermal-3d"), std::string::npos);
}

TEST(ReportTest, StandardFractions)
{
    EXPECT_EQ(standardFractions(),
              (std::vector<double>{0.5, 0.9, 0.99, 0.999}));
}

} // namespace
} // namespace report
} // namespace hcm
