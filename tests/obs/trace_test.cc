/** @file Tests for span tracing, the stage's sinks and clock reads,
 *  and the Chrome trace_event exporter. */

#include <chrono>
#include <cmath>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace obs {
namespace {

/**
 * The Tracer is a process singleton, so every test starts from a
 * disabled, empty state and leaves it that way.
 */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Tracer::instance().setEnabled(false);
        Tracer::instance().clear();
    }

    void
    TearDown() override
    {
        Tracer::instance().setEnabled(false);
        Tracer::instance().clear();
    }

    static std::optional<JsonValue>
    exportTrace()
    {
        std::ostringstream oss;
        Tracer::instance().writeChromeTrace(oss);
        return JsonValue::parse(oss.str());
    }
};

TEST_F(TraceTest, DisabledSpansRecordNothing)
{
    {
        Span span("work", "test");
        span.arg("ignored", 1);
    }
    EXPECT_FALSE(Tracer::instance().enabled());
    EXPECT_EQ(Tracer::instance().spanCount(), 0u);
}

TEST_F(TraceTest, EnabledSpanIsRecordedWithArgs)
{
    Tracer::instance().setEnabled(true);
    {
        Span span("evaluate", "svc");
        span.arg("type", "optimize");
        span.arg("rows", 12);
    }
    Tracer::instance().setEnabled(false);
    EXPECT_EQ(Tracer::instance().spanCount(), 1u);

    auto doc = exportTrace();
    ASSERT_TRUE(doc);
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->size(), 1u);
    const JsonValue &ev = events->items()[0];
    EXPECT_EQ(ev.find("name")->asString(), "evaluate");
    EXPECT_EQ(ev.find("cat")->asString(), "svc");
    EXPECT_EQ(ev.find("ph")->asString(), "X");
    EXPECT_GE(ev.find("dur")->asNumber(), 0.0);
    const JsonValue *args = ev.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("type")->asString(), "optimize");
    EXPECT_EQ(args->find("rows")->asString(), "12");
}

TEST_F(TraceTest, ExplicitEndIsIdempotent)
{
    Tracer::instance().setEnabled(true);
    Span span("once", "test");
    span.end();
    span.end(); // second end and the destructor must not double-record
    EXPECT_EQ(Tracer::instance().spanCount(), 1u);
}

TEST_F(TraceTest, SpansStartedBeforeDisableStillRecord)
{
    Tracer::instance().setEnabled(true);
    Span span("straddler", "test");
    Tracer::instance().setEnabled(false);
    span.end(); // captured _active at construction
    EXPECT_EQ(Tracer::instance().spanCount(), 1u);
}

TEST_F(TraceTest, ThreadsGetDistinctTids)
{
    Tracer::instance().setEnabled(true);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([] { Span span("worker", "test"); });
    for (std::thread &th : threads)
        th.join();
    Tracer::instance().setEnabled(false);

    auto doc = exportTrace();
    ASSERT_TRUE(doc);
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->size(), 4u);
    std::set<double> tids;
    for (const JsonValue &ev : events->items())
        tids.insert(ev.find("tid")->asNumber());
    EXPECT_EQ(tids.size(), 4u);
}

TEST_F(TraceTest, ChromeTraceDocumentIsWellFormed)
{
    Tracer::instance().setEnabled(true);
    Tracer::instance().recordSpan("alpha", "sim", 1000, 2500,
                                  {{"kind", "serial"}});
    Tracer::instance().recordSpan("beta", "sim", 4000, 1000);
    Tracer::instance().setEnabled(false);

    std::ostringstream oss;
    Tracer::instance().writeChromeTrace(oss);
    std::string text = oss.str();
    // Compact, one line: serve mode ships the document as a single
    // response line.
    EXPECT_EQ(text.find('\n'), std::string::npos);

    auto doc = JsonValue::parse(text);
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->find("displayTimeUnit")->asString(), "ms");
    EXPECT_DOUBLE_EQ(doc->find("droppedEvents")->asNumber(), 0.0);
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->size(), 2u);
    for (const JsonValue &ev : events->items()) {
        for (const char *key : {"name", "cat", "ph", "pid", "tid", "ts",
                                "dur"})
            EXPECT_NE(ev.find(key), nullptr) << key;
        EXPECT_DOUBLE_EQ(ev.find("pid")->asNumber(), 1.0);
    }
    // ts/dur are microseconds: 1000 ns start -> 1 us, 2500 ns -> 2.5 us.
    const JsonValue &alpha = events->items()[0];
    EXPECT_DOUBLE_EQ(alpha.find("ts")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(alpha.find("dur")->asNumber(), 2.5);
}

TEST_F(TraceTest, FlowEventsCarryIdAndBindingPoint)
{
    Tracer::instance().setEnabled(true);
    Tracer::instance().recordFlow("req", "net", 's', "rid-1");
    Tracer::instance().recordFlow("req", "net", 'f', "rid-1");
    Tracer::instance().setEnabled(false);

    auto doc = exportTrace();
    ASSERT_TRUE(doc);
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->size(), 2u);
    const JsonValue &start = events->items()[0];
    EXPECT_EQ(start.find("ph")->asString(), "s");
    EXPECT_EQ(start.find("id")->asString(), "rid-1");
    EXPECT_EQ(start.find("cat")->asString(), "net");
    EXPECT_EQ(start.find("bp"), nullptr);
    const JsonValue &end = events->items()[1];
    EXPECT_EQ(end.find("ph")->asString(), "f");
    EXPECT_EQ(end.find("id")->asString(), "rid-1");
    // "bp":"e" binds the arrow to the enclosing slice in Perfetto.
    ASSERT_NE(end.find("bp"), nullptr);
    EXPECT_EQ(end.find("bp")->asString(), "e");
}

TEST_F(TraceTest, DisabledFlowsRecordNothing)
{
    Tracer::instance().recordFlow("req", "net", 's', "rid-1");
    auto doc = exportTrace();
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->find("traceEvents")->size(), 0u);
}

TEST_F(TraceTest, DocumentCarriesAWallClockAnchor)
{
    Tracer::instance().setEnabled(true);
    Tracer::instance().recordSpan("work", "test", 0, 10);
    Tracer::instance().setEnabled(false);
    auto doc = exportTrace();
    ASSERT_TRUE(doc);
    const JsonValue *anchor = doc->find("traceStartWallUs");
    ASSERT_NE(anchor, nullptr);
    EXPECT_TRUE(anchor->isNumber());
    EXPECT_GT(anchor->asNumber(), 0.0);
}

TEST_F(TraceTest, ExportsAreCumulativeUntilClear)
{
    Tracer::instance().setEnabled(true);
    Tracer::instance().recordSpan("first", "test", 0, 10);
    {
        std::ostringstream oss;
        Tracer::instance().writeChromeTrace(oss);
    }
    Tracer::instance().recordSpan("second", "test", 20, 10);
    Tracer::instance().setEnabled(false);
    EXPECT_EQ(Tracer::instance().spanCount(), 2u);

    Tracer::instance().clear();
    EXPECT_EQ(Tracer::instance().spanCount(), 0u);
    auto doc = exportTrace();
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->find("traceEvents")->size(), 0u);
}

TEST_F(TraceTest, NowNsIsMonotonic)
{
    std::uint64_t a = Tracer::nowNs();
    std::uint64_t b = Tracer::nowNs();
    EXPECT_GE(b, a);
}

/** Stages feed both collectors, so these tests reset both. */
class StageTest : public TraceTest
{
  protected:
    void
    SetUp() override
    {
        TraceTest::SetUp();
        Profiler::instance().setEnabled(false);
        Profiler::instance().clear();
    }

    void
    TearDown() override
    {
        Profiler::instance().setEnabled(false);
        Profiler::instance().clear();
        TraceTest::TearDown();
    }

    static void
    spin()
    {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
};

TEST_F(StageTest, TraceAndProfileGetTheDurationEndReturns)
{
    Tracer::instance().setEnabled(true);
    Profiler::instance().setEnabled(true);
    std::uint64_t dur = 0;
    {
        Span span("test.both", "test");
        spin();
        dur = span.end();
    }
    Tracer::instance().setEnabled(false);
    EXPECT_GT(dur, 0u);

    auto doc = exportTrace();
    ASSERT_TRUE(doc);
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->size(), 1u);
    EXPECT_EQ(std::llround(events->items()[0].find("dur")->asNumber() *
                           1e3),
              static_cast<long long>(dur));

    std::ostringstream profile;
    Profiler::instance().writeJson(profile);
    auto tree = JsonValue::parse(profile.str());
    ASSERT_TRUE(tree);
    const JsonValue &root = tree->find("roots")->items()[0];
    EXPECT_EQ(root.find("name")->asString(), "test.both");
    EXPECT_EQ(root.find("totalNs")->asNumber(), static_cast<double>(dur));
}

TEST_F(StageTest, UntimedStageWithNothingOnReadsNoClock)
{
    Span span("test.off", "test");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.startNs(), 0u);
    EXPECT_EQ(span.end(), 0u);
}

TEST_F(StageTest, TimedStageMeasuresWithNothingOn)
{
    Span span("test.timed", "test", true);
    spin();
    std::uint64_t dur = span.end();
    EXPECT_GE(dur, 200'000u);
    EXPECT_EQ(span.end(), dur); // idempotent, same duration
    EXPECT_EQ(Tracer::instance().spanCount(), 0u);
    EXPECT_EQ(Profiler::instance().siteCount(), 0u);
}

TEST_F(StageTest, ExplicitStartCountsFromThatInstant)
{
    Tracer::instance().setEnabled(true);
    std::uint64_t start = Tracer::nowNs();
    spin();
    Span span("test.since", "test", Since{start});
    std::uint64_t dur = span.end();
    Tracer::instance().setEnabled(false);
    EXPECT_EQ(span.startNs(), start);
    EXPECT_GE(dur, 200'000u);
    auto doc = exportTrace();
    ASSERT_TRUE(doc);
    const JsonValue &ev = doc->find("traceEvents")->items()[0];
    EXPECT_EQ(std::llround(ev.find("ts")->asNumber() * 1e3),
              static_cast<long long>(start));
}

TEST_F(StageTest, NamelessTimerFeedsNoCollector)
{
    Tracer::instance().setEnabled(true);
    Profiler::instance().setEnabled(true);
    std::uint64_t dur = 0;
    {
        Span timer(nullptr, nullptr, true);
        spin();
        dur = timer.end();
    }
    EXPECT_GE(dur, 200'000u);
    EXPECT_EQ(Tracer::instance().spanCount(), 0u);
    EXPECT_EQ(Profiler::instance().siteCount(), 0u);
}

} // namespace
} // namespace obs
} // namespace hcm
