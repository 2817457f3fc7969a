/** @file Unit tests for plot/figure. */

#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "oracle/csv_reader.hh"
#include "plot/figure.hh"

namespace hcm {
namespace plot {
namespace {

namespace fs = std::filesystem;

Figure
sampleFigure()
{
    Figure fig("figX", "test figure");
    Panel &p1 = fig.addPanel("f=0.5", Axis{"node", false, {}},
                             Axis{"speedup", false, {}});
    Series s("asic");
    s.add(0, 1.0, LineStyle::Dashed);
    s.add(1, 2.0, LineStyle::Solid);
    p1.series.push_back(s);
    fig.addPanel("f=0.9", Axis{}, Axis{});
    return fig;
}

TEST(FigureTest, PanelsAccumulate)
{
    Figure fig = sampleFigure();
    EXPECT_EQ(fig.id(), "figX");
    ASSERT_EQ(fig.panels().size(), 2u);
    EXPECT_EQ(fig.panels()[0].title, "f=0.5");
    EXPECT_EQ(fig.panels()[0].series.size(), 1u);
}

TEST(FigureTest, AsciiRenderIncludesAllPanels)
{
    std::ostringstream oss;
    sampleFigure().renderAscii(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("figX"), std::string::npos);
    EXPECT_NE(out.find("f=0.5"), std::string::npos);
    EXPECT_NE(out.find("f=0.9"), std::string::npos);
}

TEST(FigureTest, WriteFilesEmitsCsvAndGnuplot)
{
    std::string dir =
        (fs::temp_directory_path() / "hcm_figure_test").string();
    fs::remove_all(dir);
    sampleFigure().writeFiles(dir);

    auto rows = readCsv(dir + "/figX.csv");
    ASSERT_EQ(rows.size(), 3u); // header + 2 points
    EXPECT_EQ(rows[0][0], "panel");
    EXPECT_EQ(rows[1][1], "asic");
    EXPECT_EQ(rows[1][4], "dashed");
    EXPECT_EQ(rows[2][4], "solid");

    EXPECT_TRUE(fs::exists(dir + "/figX_panel0.gp"));
    EXPECT_TRUE(fs::exists(dir + "/figX_panel1.gp"));
    fs::remove_all(dir);
}

} // namespace
} // namespace plot
} // namespace hcm
