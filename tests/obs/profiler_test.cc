/** Tests for the profiler as a stage sink: tree building, cross-thread
 *  merge, stages opened from an explicit start, and both export
 *  formats. The profiler is a process-wide singleton, so every test
 *  runs against a cleared, initially-disabled instance. */

#include "obs/profiler.hh"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "obs/trace.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace obs {
namespace {

class ProfilerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Profiler::instance().setEnabled(false);
        Profiler::instance().clear();
    }

    void
    TearDown() override
    {
        Profiler::instance().setEnabled(false);
        Profiler::instance().clear();
    }

    static void
    spin()
    {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }

    static std::string
    collapsed()
    {
        std::ostringstream out;
        Profiler::instance().writeCollapsed(out);
        return out.str();
    }

    static JsonValue
    profileJson()
    {
        std::ostringstream out;
        Profiler::instance().writeJson(out);
        std::string error;
        auto doc = JsonValue::parse(out.str(), &error);
        EXPECT_TRUE(doc) << error;
        return doc ? *doc : JsonValue();
    }
};

TEST_F(ProfilerTest, DisabledScopeRecordsNothing)
{
    {
        Span scope("test.disabled");
        spin();
    }
    EXPECT_EQ(Profiler::instance().siteCount(), 0u);
    EXPECT_EQ(collapsed(), "");
}

TEST_F(ProfilerTest, NestedScopesBuildTree)
{
    Profiler::instance().setEnabled(true);
    {
        Span outer("test.outer");
        spin();
        {
            Span inner("test.inner");
            spin();
        }
        {
            Span inner("test.inner");
            spin();
        }
    }
    JsonValue doc = profileJson();
    const JsonValue *roots = doc.find("roots");
    ASSERT_TRUE(roots && roots->isArray());
    ASSERT_EQ(roots->size(), 1u);
    const JsonValue &outer = roots->items()[0];
    EXPECT_EQ(outer.find("name")->asString(), "test.outer");
    EXPECT_EQ(outer.find("calls")->asNumber(), 1.0);
    const JsonValue *children = outer.find("children");
    ASSERT_TRUE(children && children->isArray());
    ASSERT_EQ(children->size(), 1u);
    const JsonValue &inner = children->items()[0];
    EXPECT_EQ(inner.find("name")->asString(), "test.inner");
    EXPECT_EQ(inner.find("calls")->asNumber(), 2.0);
    // Inclusive parent time covers its children; self excludes them.
    EXPECT_GE(outer.find("totalNs")->asNumber(),
              inner.find("totalNs")->asNumber());
    EXPECT_LE(outer.find("selfNs")->asNumber(),
              outer.find("totalNs")->asNumber());
}

TEST_F(ProfilerTest, CollapsedStackListsFullPaths)
{
    Profiler::instance().setEnabled(true);
    {
        Span outer("test.outer");
        Span inner("test.inner");
        spin();
    }
    std::string text = collapsed();
    // Leaves always get a line; the separator is the flamegraph ';'.
    EXPECT_NE(text.find("test.outer;test.inner "), std::string::npos)
        << text;
}

TEST_F(ProfilerTest, RecordAttributesUnderCurrentScope)
{
    // A stage opened from an earlier start (the queue wait's shape)
    // nests under whatever stage is open on the closing thread.
    Profiler::instance().setEnabled(true);
    std::uint64_t start = Tracer::nowNs();
    spin();
    std::uint64_t dur = 0;
    {
        Span outer("test.outer");
        Span manual("test.manual", "test", Since{start});
        dur = manual.end();
    }
    EXPECT_GT(dur, 0u);
    std::string text = collapsed();
    EXPECT_NE(text.find("test.outer;test.manual " + std::to_string(dur)),
              std::string::npos)
        << text;
}

TEST_F(ProfilerTest, RecordOutsideAnyScopeBecomesRoot)
{
    Profiler::instance().setEnabled(true);
    std::uint64_t start = Tracer::nowNs();
    spin();
    Span orphan("test.orphan", "test", Since{start});
    std::uint64_t dur = orphan.end();
    std::string text = collapsed();
    EXPECT_NE(text.find("test.orphan " + std::to_string(dur)),
              std::string::npos)
        << text;
}

TEST_F(ProfilerTest, RecordWhileDisabledIsDropped)
{
    Span noop("test.noop", "test", Since{Tracer::nowNs()});
    noop.end();
    EXPECT_EQ(Profiler::instance().siteCount(), 0u);
}

TEST_F(ProfilerTest, ThreadsMergeByPath)
{
    Profiler::instance().setEnabled(true);
    auto work = [] {
        Span outer("test.mt");
        Span inner("test.leaf");
        spin();
    };
    std::thread a(work), b(work);
    a.join();
    b.join();
    JsonValue doc = profileJson();
    const JsonValue *roots = doc.find("roots");
    ASSERT_TRUE(roots && roots->isArray());
    ASSERT_EQ(roots->size(), 1u);
    const JsonValue &outer = roots->items()[0];
    EXPECT_EQ(outer.find("calls")->asNumber(), 2.0);
    const JsonValue &leaf = outer.find("children")->items()[0];
    EXPECT_EQ(leaf.find("calls")->asNumber(), 2.0);
    // Per-thread trees count sites separately until merged...
    EXPECT_EQ(Profiler::instance().siteCount(), 4u);
    // ...but the export's site count is post-merge.
    EXPECT_EQ(doc.find("sites")->asNumber(), 2.0);
}

TEST_F(ProfilerTest, EndIsIdempotent)
{
    Profiler::instance().setEnabled(true);
    {
        Span scope("test.end");
        scope.end();
        scope.end(); // second end (and the destructor) must not double
    }
    JsonValue doc = profileJson();
    const JsonValue &root = doc.find("roots")->items()[0];
    EXPECT_EQ(root.find("calls")->asNumber(), 1.0);
}

TEST_F(ProfilerTest, ClearDropsAggregates)
{
    Profiler::instance().setEnabled(true);
    {
        Span scope("test.cleared");
        spin();
    }
    EXPECT_GT(Profiler::instance().siteCount(), 0u);
    Profiler::instance().clear();
    EXPECT_EQ(Profiler::instance().siteCount(), 0u);
    EXPECT_EQ(collapsed(), "");
}

TEST_F(ProfilerTest, JsonReportsEnabledFlag)
{
    EXPECT_EQ(profileJson().find("enabled")->asBool(), false);
    Profiler::instance().setEnabled(true);
    EXPECT_EQ(profileJson().find("enabled")->asBool(), true);
}

} // namespace
} // namespace obs
} // namespace hcm
