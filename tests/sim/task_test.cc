/** @file Tests for the synthetic task graphs. */

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "sim/task.hh"

namespace hcm {
namespace sim {
namespace {

/** Work of @p g's phases of kind @p kind, or of every phase. */
double
workOf(const TaskGraph &g, std::optional<PhaseKind> kind = std::nullopt)
{
    double sum = 0.0;
    for (const Phase &p : g.phases())
        if (!kind || p.kind == *kind)
            sum += p.work;
    return sum;
}

TEST(TaskTest, AmdahlShape)
{
    TaskGraph g = TaskGraph::amdahl(0.9, 100);
    ASSERT_EQ(g.phases().size(), 2u);
    EXPECT_EQ(g.phases()[0].kind, PhaseKind::Serial);
    EXPECT_NEAR(g.phases()[0].work, 0.1, 1e-12);
    EXPECT_EQ(g.phases()[1].kind, PhaseKind::Parallel);
    EXPECT_NEAR(g.phases()[1].work, 0.9, 1e-12);
    EXPECT_EQ(g.phases()[1].chunks, 100u);
    EXPECT_NEAR(workOf(g), 1.0, 1e-12);
    EXPECT_NEAR(workOf(g, PhaseKind::Parallel) / workOf(g), 0.9, 1e-12);
}

TEST(TaskTest, DegenerateFractions)
{
    TaskGraph all_serial = TaskGraph::amdahl(0.0, 8);
    ASSERT_EQ(all_serial.phases().size(), 1u);
    EXPECT_EQ(all_serial.phases()[0].kind, PhaseKind::Serial);
    EXPECT_DOUBLE_EQ(workOf(all_serial, PhaseKind::Parallel), 0.0);

    TaskGraph all_parallel = TaskGraph::amdahl(1.0, 8);
    ASSERT_EQ(all_parallel.phases().size(), 1u);
    EXPECT_DOUBLE_EQ(workOf(all_parallel, PhaseKind::Parallel),
                     workOf(all_parallel));
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
    EXPECT_NEAR(workOf(g), 1.0, 1e-12);
    EXPECT_NEAR(workOf(g, PhaseKind::Parallel) / workOf(g), 0.8, 1e-12);
    EXPECT_NEAR(workOf(g, PhaseKind::Parallel), 0.8, 1e-12);
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
