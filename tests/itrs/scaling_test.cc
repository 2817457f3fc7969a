/** @file Tests for the Table 6 node parameters. */

#include <gtest/gtest.h>

#include "itrs/scaling.hh"
#include "util/format.hh"

namespace hcm {
namespace itrs {
namespace {

TEST(ScalingTest, FiveNodesInOrder)
{
    const auto &nodes = nodeTable();
    ASSERT_EQ(nodes.size(), 5u);
    const double nms[] = {40, 32, 22, 16, 11};
    const int years[] = {2011, 2013, 2016, 2019, 2022};
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_DOUBLE_EQ(nodes[i].nodeNm, nms[i]);
        EXPECT_EQ(nodes[i].year, years[i]);
    }
}

TEST(ScalingTest, NodeLabelsAreFormattedOnce)
{
    for (const NodeParams &n : nodeTable()) {
        EXPECT_EQ(n.label(), fmtSig(n.nodeNm, 3) + "nm");
        // One string per node, handed out by reference on every call,
        // whichever copy of the node asks.
        NodeParams copy = n;
        EXPECT_EQ(&copy.label(), &n.label());
    }
    EXPECT_EQ(nodeParams(22.0).label(), "22nm");
}

TEST(ScalingTest, Table6ValuesVerbatim)
{
    const double bce[] = {19, 37, 75, 149, 298};
    const double rel_pwr[] = {1.0, 0.75, 0.5, 0.36, 0.25};
    const double rel_bw[] = {1.0, 1.1, 1.3, 1.3, 1.4};
    const double bw[] = {180, 198, 234, 234, 252};
    const auto &nodes = nodeTable();
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_DOUBLE_EQ(nodes[i].maxAreaBce, bce[i]);
        EXPECT_DOUBLE_EQ(nodes[i].relPowerPerTransistor, rel_pwr[i]);
        EXPECT_DOUBLE_EQ(nodes[i].relBandwidth, rel_bw[i]);
        EXPECT_DOUBLE_EQ(nodes[i].offchipBw.value(), bw[i]);
        EXPECT_DOUBLE_EQ(nodes[i].coreDieBudget.value(), 432.0);
        EXPECT_DOUBLE_EQ(nodes[i].corePowerBudget.value(), 100.0);
    }
}

TEST(ScalingTest, BandwidthColumnIsBaseTimesRelative)
{
    for (const NodeParams &n : nodeTable())
        EXPECT_NEAR(n.offchipBw.value(),
                    kBaseBandwidthGBs * n.relBandwidth, 1e-9);
}

TEST(ScalingTest, BceAreaRoughlyDoublesPerNode)
{
    const auto &nodes = nodeTable();
    for (std::size_t i = 1; i < nodes.size(); ++i) {
        double ratio = nodes[i].maxAreaBce / nodes[i - 1].maxAreaBce;
        EXPECT_GT(ratio, 1.9);
        EXPECT_LT(ratio, 2.1);
    }
}

TEST(ScalingTest, LookupByNode)
{
    EXPECT_EQ(nodeParams(22.0).year, 2016);
    EXPECT_DOUBLE_EQ(nodeParams(11.0).relPowerPerTransistor, 0.25);
}

TEST(ScalingTest, Labels)
{
    EXPECT_EQ(nodeTable().front().label(), "40nm");
    auto labels = nodeLabels();
    ASSERT_EQ(labels.size(), 5u);
    EXPECT_EQ(labels.back(), "11nm");
}

TEST(ScalingDeathTest, UnknownNodePanics)
{
    EXPECT_DEATH(nodeParams(28.0), "not in Table 6");
}

} // namespace
} // namespace itrs
} // namespace hcm
