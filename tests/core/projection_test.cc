/** @file Tests for the ITRS projection engine. */

#include <gtest/gtest.h>

#include "core/projection.hh"

namespace hcm {
namespace core {
namespace {

TEST(ProjectionTest, SeriesCoversAllFiveNodes)
{
    auto series = projectOrganization(symmetricCmp(),
                                      wl::Workload::fft(1024), 0.9);
    ASSERT_EQ(series.points.size(), 5u);
    EXPECT_DOUBLE_EQ(series.points.front().node.nodeNm, 40.0);
    EXPECT_DOUBLE_EQ(series.points.back().node.nodeNm, 11.0);
}

TEST(ProjectionTest, AllPaperDesignsAreFeasibleAtBaseline)
{
    for (const wl::Workload &w :
         {wl::Workload::mmm(), wl::Workload::blackScholes(),
          wl::Workload::fft(1024)}) {
        for (double f : {0.5, 0.9, 0.99}) {
            for (const auto &series : projectAll(w, f)) {
                for (const NodePoint &pt : series.points) {
                    EXPECT_TRUE(pt.design.feasible)
                        << series.org.name << " " << w.name() << " f=" << f
                        << " @" << pt.node.label();
                    EXPECT_GT(pt.design.speedup, 0.0);
                }
            }
        }
    }
}

TEST(ProjectionTest, SpeedupGrowsAcrossNodes)
{
    // Budgets only loosen with scaling, so each line is non-decreasing.
    for (const auto &series :
         projectAll(wl::Workload::fft(1024), 0.99)) {
        double prev = 0.0;
        for (const NodePoint &pt : series.points) {
            EXPECT_GE(pt.design.speedup, prev - 1e-9) << series.org.name;
            prev = pt.design.speedup;
        }
    }
}

TEST(ProjectionTest, ScenarioAlphaPropagatesToOptimizer)
{
    // With alpha = 2.25 the serial power bound shrinks the core, so
    // low-f speedups drop (Section 6.2, scenario 6).
    auto base = projectOrganization(asymmetricCmp(),
                                    wl::Workload::fft(1024), 0.5);
    auto steep = projectOrganization(asymmetricCmp(),
                                     wl::Workload::fft(1024), 0.5,
                                     scenarioByName("alpha-2.25"));
    // At 40nm the tighter serial power bound bites (P ~ 8.4 BCE caps r
    // at 6.7 instead of 11.4); at later nodes the r <= 16 sweep limit
    // dominates both, so only require no improvement there.
    EXPECT_LT(steep.points[0].design.speedup,
              base.points[0].design.speedup);
    for (std::size_t i = 1; i < base.points.size(); ++i)
        EXPECT_LE(steep.points[i].design.speedup,
                  base.points[i].design.speedup + 1e-9)
            << base.points[i].node.label();
}

TEST(ProjectionTest, EnergyNormalizedFallsAcrossNodes)
{
    // relPower drops 1 -> 0.25, and the optimal design's energy tracks
    // it (Figure 10's downward staircases).
    auto series = projectOrganization(
        *heterogeneous(dev::DeviceId::Asic, wl::Workload::mmm()),
        wl::Workload::mmm(), 0.9);
    double prev = 1e300;
    for (const NodePoint &pt : series.points) {
        double e = pt.energyNormalized();
        EXPECT_GT(e, 0.0);
        EXPECT_LE(e, prev * 1.05) << pt.node.label();
        prev = e;
    }
}

TEST(ProjectionTest, BudgetsStoredPerNode)
{
    auto series = projectOrganization(symmetricCmp(),
                                      wl::Workload::mmm(), 0.9);
    EXPECT_DOUBLE_EQ(series.points[0].budget.area, 19.0);
    EXPECT_DOUBLE_EQ(series.points[4].budget.area, 298.0);
    EXPECT_GT(series.points[4].budget.power, series.points[0].budget.power);
}

TEST(ProjectionTest, ProjectAllPreservesLegendOrder)
{
    auto all = projectAll(wl::Workload::blackScholes(), 0.9);
    ASSERT_EQ(all.size(), 5u);
    EXPECT_EQ(all.front().org.name, "SymCMP");
    EXPECT_EQ(all.back().org.name, "ASIC");
}

TEST(ProjectionTest, ApplyScenarioCarriesBudgetAlphaAndProfile)
{
    const itrs::NodeParams &node = itrs::nodeParams(22.0);
    auto w = wl::Workload::mmm();
    OptimizerOptions opts;
    opts.rMax = 8.0;
    const Scenario &steep = scenarioByName("alpha-2.25");
    AppliedScenario applied = applyScenario(steep, node, w, opts);
    Budget want = makeBudget(node, w, steep);
    EXPECT_EQ(applied.budget.area, want.area);
    EXPECT_EQ(applied.budget.power, want.power);
    EXPECT_EQ(applied.budget.bandwidth, want.bandwidth);
    EXPECT_EQ(applied.opts.alpha, steep.alpha);
    EXPECT_EQ(applied.opts.rMax, 8.0);
    // A single-f scenario leaves (org, f) alone ...
    EXPECT_EQ(applied.fraction(0.9), 0.9);
    Organization asic = *heterogeneous(dev::DeviceId::Asic, w);
    EXPECT_EQ(applied.organization(asic).ucore.mu, asic.ucore.mu);
    // ... a segment profile reduces both.
    const Scenario &multi = scenarioByName("multi-amdahl");
    AppliedScenario seg = applyScenario(multi, node, w);
    EXPECT_EQ(seg.fraction(0.9), 0.9 * multi.segments.parallelWeight());
    EXPECT_NE(seg.organization(asic).ucore.mu, asic.ucore.mu);
}

} // namespace
} // namespace core
} // namespace hcm
