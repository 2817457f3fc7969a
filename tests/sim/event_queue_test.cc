/** @file Tests for the discrete-event queue. */

#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"

namespace hcm {
namespace sim {
namespace {

/**
 * Run @p n events, as the simulator does: it knows from its own state
 * when a phase is done, not from the queue running dry.
 */
void
runEvents(EventQueue &q, int n)
{
    for (int i = 0; i < n; ++i)
        q.runNext();
}

TEST(EventQueueTest, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(3.0, [&] { order.push_back(3); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(2.0, [&] { order.push_back(2); });
    runEvents(q, 3);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(1.0, [&order, i] { order.push_back(i); });
    runEvents(q, 5);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ActionsMayScheduleMoreEvents)
{
    EventQueue q;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 4)
            q.schedule(q.now() + 1.0, chain);
    };
    q.schedule(1.0, chain);
    runEvents(q, 4);
    EXPECT_EQ(fired, 4);
    EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueueTest, EqualTimestampEventsAllRun)
{
    EventQueue q;
    int count = 0;
    for (int i = 0; i < 100; ++i)
        q.schedule(7.0, [&] { ++count; });
    runEvents(q, 100);
    EXPECT_EQ(count, 100);
}

TEST(EventQueueDeathTest, GuardsMisuse)
{
    EventQueue q;
    EXPECT_DEATH(q.runNext(), "empty");
    q.schedule(5.0, [] {});
    q.runNext();
    EXPECT_DEATH(q.schedule(1.0, [] {}), "past");
}

} // namespace
} // namespace sim
} // namespace hcm
