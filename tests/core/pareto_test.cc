/** @file Tests for the speedup/energy Pareto explorer. */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/pareto.hh"

namespace hcm {
namespace core {
namespace {

const itrs::NodeParams &node22 = itrs::nodeParams(22.0);

/** The dominance relation paretoFrontier() filters by: @p p is no worse
 *  than @p q in both objectives and strictly better in one. */
bool
dominates(const ParetoPoint &p, const ParetoPoint &q)
{
    constexpr double eps = 1e-12;
    bool no_worse = p.design.speedup >= q.design.speedup - eps &&
                    p.energyNormalized <= q.energyNormalized + eps;
    bool better = p.design.speedup > q.design.speedup + eps ||
                  p.energyNormalized < q.energyNormalized - eps;
    return no_worse && better;
}

ParetoPoint
point(double speedup, double energy)
{
    ParetoPoint p;
    p.design.speedup = speedup;
    p.design.feasible = true;
    p.energyNormalized = energy;
    return p;
}

TEST(ParetoTest, DominationSemantics)
{
    // A point no worse in both objectives and strictly better in one
    // drops out; a trade-off pair does not.
    ParetoPoint fast_cheap = point(10.0, 0.5);
    for (const ParetoPoint &worse : {point(5.0, 1.0), point(10.0, 1.0),
                                     point(5.0, 0.5)}) {
        auto frontier = paretoFrontier({worse, fast_cheap});
        ASSERT_EQ(frontier.size(), 1u);
        EXPECT_EQ(frontier[0].design.speedup, 10.0);
        EXPECT_EQ(frontier[0].energyNormalized, 0.5);
    }
    EXPECT_EQ(paretoFrontier({point(5.0, 0.2), fast_cheap}).size(), 2u);
}

TEST(ParetoTest, FrontierFiltersDominatedAndSorts)
{
    std::vector<ParetoPoint> pts = {
        point(10.0, 0.5), point(5.0, 1.0), point(5.0, 0.2),
        point(8.0, 0.3), point(2.0, 0.25),
    };
    auto frontier = paretoFrontier(pts);
    ASSERT_EQ(frontier.size(), 3u);
    EXPECT_DOUBLE_EQ(frontier[0].design.speedup, 5.0);  // 0.2 energy
    EXPECT_DOUBLE_EQ(frontier[1].design.speedup, 8.0);
    EXPECT_DOUBLE_EQ(frontier[2].design.speedup, 10.0);
}

TEST(ParetoTest, DuplicatesCollapse)
{
    auto frontier =
        paretoFrontier({point(3.0, 0.4), point(3.0, 0.4)});
    EXPECT_EQ(frontier.size(), 1u);
}

TEST(ParetoTest, EnumerationCoversAllOrganizationsAndRs)
{
    auto pts = enumerateDesigns(wl::Workload::mmm(), 0.99, node22);
    // 7 organizations; most contribute one point per integer r plus
    // the fractional serial cap; DynCMP is absent from the paper set.
    EXPECT_GT(pts.size(), 50u);
    bool has_sym = false, has_asic = false;
    for (const ParetoPoint &p : pts) {
        EXPECT_TRUE(p.design.feasible);
        EXPECT_GT(p.design.speedup, 0.0);
        EXPECT_GT(p.energyNormalized, 0.0);
        if (p.orgName == "SymCMP")
            has_sym = true;
        if (p.orgName == "ASIC")
            has_asic = true;
    }
    EXPECT_TRUE(has_sym);
    EXPECT_TRUE(has_asic);
}

TEST(ParetoTest, FrontierIsMonotoneTradeoff)
{
    auto frontier =
        paretoFrontier(enumerateDesigns(wl::Workload::mmm(), 0.99, node22));
    ASSERT_GE(frontier.size(), 2u);
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GT(frontier[i].design.speedup,
                  frontier[i - 1].design.speedup);
        // On a frontier, more speed must cost more energy.
        EXPECT_GE(frontier[i].energyNormalized,
                  frontier[i - 1].energyNormalized - 1e-12);
    }
}

TEST(ParetoTest, AsicOwnsTheMmmFrontierEnd)
{
    // For MMM the ASIC dominates the high-speedup end (conclusion 2/4).
    auto frontier =
        paretoFrontier(enumerateDesigns(wl::Workload::mmm(), 0.99, node22));
    EXPECT_EQ(frontier.back().orgName, "ASIC");
    // And the lowest-energy point is also a U-core, not a CMP.
    EXPECT_NE(frontier.front().orgName, "SymCMP");
    EXPECT_NE(frontier.front().orgName, "AsymCMP");
}

TEST(ParetoTest, NoFrontierPointIsDominated)
{
    auto pts = enumerateDesigns(wl::Workload::fft(1024), 0.9, node22);
    auto frontier = paretoFrontier(pts);
    for (const ParetoPoint &f : frontier)
        for (const ParetoPoint &p : pts)
            EXPECT_FALSE(dominates(p, f))
                << p.orgName << " dominates frontier point "
                << f.orgName;
}

/** The O(n^2) all-pairs reference the sorted scan must reproduce. */
std::vector<ParetoPoint>
bruteFrontier(const std::vector<ParetoPoint> &points)
{
    std::vector<ParetoPoint> frontier;
    for (const ParetoPoint &candidate : points) {
        bool dominated = false;
        for (const ParetoPoint &p : points)
            if (dominates(p, candidate)) {
                dominated = true;
                break;
            }
        if (dominated)
            continue;
        bool duplicate = false;
        for (const ParetoPoint &kept : frontier)
            if (std::fabs(kept.design.speedup -
                          candidate.design.speedup) <= 1e-12 &&
                std::fabs(kept.energyNormalized -
                          candidate.energyNormalized) <= 1e-12) {
                duplicate = true;
                break;
            }
        if (!duplicate)
            frontier.push_back(candidate);
    }
    std::sort(frontier.begin(), frontier.end(),
              [](const ParetoPoint &a, const ParetoPoint &b) {
                  return a.design.speedup < b.design.speedup;
              });
    return frontier;
}

void
expectSameFrontier(const std::vector<ParetoPoint> &points)
{
    auto fast = paretoFrontier(points);
    auto slow = bruteFrontier(points);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(fast[i].orgName, slow[i].orgName) << "index " << i;
        EXPECT_DOUBLE_EQ(fast[i].design.speedup,
                         slow[i].design.speedup);
        EXPECT_DOUBLE_EQ(fast[i].energyNormalized,
                         slow[i].energyNormalized);
    }
}

TEST(ParetoTest, SortedScanMatchesAllPairsOnRealEnumerations)
{
    for (const wl::Workload &w :
         {wl::Workload::mmm(), wl::Workload::blackScholes(),
          wl::Workload::fft(1024)})
        for (double f : {0.5, 0.9, 0.99, 0.999})
            expectSameFrontier(enumerateDesigns(w, f, node22));
}

TEST(ParetoTest, SortedScanMatchesAllPairsOnAdversarialTies)
{
    // Exact duplicates, eps-band near-ties on each axis, and points
    // whose dominator sits later in the input.
    std::vector<ParetoPoint> pts = {
        point(5.0, 1.0),
        point(5.0, 1.0),               // exact duplicate
        point(5.0, 1.0 + 5e-13),       // inside the tie band
        point(5.0 + 5e-13, 1.0),       // speedup tie band
        point(5.0, 0.5),               // dominates the group above
        point(10.0, 0.5),              // dominates everything before it
        point(10.0 - 5e-13, 0.5),      // ties with the best
        point(2.0, 0.1),
        point(2.0, 0.1 + 2e-12),       // just outside the band
        point(1.0, 2.0),               // dominated on both axes
    };
    expectSameFrontier(pts);
}

TEST(ParetoTest, SingleAndEmptyInputs)
{
    EXPECT_TRUE(paretoFrontier(std::vector<ParetoPoint>{}).empty());
    auto one = paretoFrontier({point(3.0, 0.5)});
    ASSERT_EQ(one.size(), 1u);
    EXPECT_DOUBLE_EQ(one[0].design.speedup, 3.0);
}

TEST(ParetoTest, BestDesignsAppliesTheDeviceFilter)
{
    const itrs::NodeParams &node = itrs::nodeParams(22.0);
    auto w = wl::Workload::fft(1024);
    auto all = bestDesigns(w, 0.99, node);
    EXPECT_EQ(all.size(), paperOrganizations(w).size());
    auto asic = bestDesigns(w, 0.99, node, baselineScenario(),
                            dev::DeviceId::Asic);
    ASSERT_EQ(asic.size(), 3u); // both CMPs and the one HET
    EXPECT_EQ(asic[0].orgName, all[0].orgName);
    EXPECT_EQ(asic[1].orgName, all[1].orgName);
    EXPECT_EQ(asic[2].orgName, "ASIC");
    EXPECT_EQ(asic[2].design.speedup, all.back().design.speedup);
}

} // namespace
} // namespace core
} // namespace hcm
