/** @file Tests for the synthetic task graphs. */

#include <vector>

#include <gtest/gtest.h>

#include "sim/task.hh"

namespace hcm {
namespace sim {
namespace {

TEST(TaskTest, AmdahlShape)
{
    TaskGraph g = TaskGraph::amdahl(0.9, 100);
    ASSERT_EQ(g.phases().size(), 2u);
    EXPECT_EQ(g.phases()[0].kind, PhaseKind::Serial);
    EXPECT_NEAR(g.phases()[0].work, 0.1, 1e-12);
    EXPECT_EQ(g.phases()[1].kind, PhaseKind::Parallel);
    EXPECT_NEAR(g.phases()[1].work, 0.9, 1e-12);
    EXPECT_EQ(g.phases()[1].chunks, 100u);
    EXPECT_NEAR(g.totalWork(), 1.0, 1e-12);
    EXPECT_NEAR(g.parallelFraction(), 0.9, 1e-12);
}

TEST(TaskTest, DegenerateFractions)
{
    TaskGraph all_serial = TaskGraph::amdahl(0.0, 8);
    ASSERT_EQ(all_serial.phases().size(), 1u);
    EXPECT_EQ(all_serial.phases()[0].kind, PhaseKind::Serial);
    EXPECT_DOUBLE_EQ(all_serial.parallelFraction(), 0.0);

    TaskGraph all_parallel = TaskGraph::amdahl(1.0, 8);
    ASSERT_EQ(all_parallel.phases().size(), 1u);
    EXPECT_DOUBLE_EQ(all_parallel.parallelFraction(), 1.0);
}

TEST(TaskTest, AlternatingPreservesAggregates)
{
    // Five (serial, parallel) rounds with the same aggregate split.
    std::vector<Phase> phases;
    for (int i = 0; i < 5; ++i) {
        phases.push_back({PhaseKind::Serial, 0.2 / 5, 1, {}, "serial"});
        phases.push_back({PhaseKind::Parallel, 0.8 / 5, 20, {}, "parallel"});
    }
    TaskGraph g(std::move(phases));
    EXPECT_EQ(g.phases().size(), 10u);
    EXPECT_NEAR(g.totalWork(), 1.0, 1e-12);
    EXPECT_NEAR(g.parallelFraction(), 0.8, 1e-12);
    EXPECT_NEAR(g.parallelWork(), 0.8, 1e-12);
}

TEST(TaskDeathTest, Guards)
{
    EXPECT_DEATH(TaskGraph({}), "at least one");
    EXPECT_DEATH(TaskGraph({{PhaseKind::Serial, -1.0, 1, {}, ""}}),
                 "negative");
    EXPECT_DEATH(TaskGraph::amdahl(1.5, 4), "outside");
}

} // namespace
} // namespace sim
} // namespace hcm
