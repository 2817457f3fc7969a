/** @file Tests for cross-process trace merge and validation. */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace_merge.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace obs {
namespace {

/** Build a minimal per-process trace document. */
std::string
traceDoc(const std::string &events, long long wall_us = -1)
{
    std::string doc = "{\"displayTimeUnit\":\"ms\",";
    if (wall_us >= 0)
        doc += "\"traceStartWallUs\":" + std::to_string(wall_us) + ",";
    doc += "\"traceEvents\":[" + events + "]}";
    return doc;
}

std::string
spanEvent(const char *name, double ts, double dur = 1.0)
{
    std::ostringstream oss;
    oss << "{\"name\":\"" << name
        << "\",\"cat\":\"hcm\",\"ph\":\"X\",\"ts\":" << ts
        << ",\"dur\":" << dur << ",\"pid\":1,\"tid\":1}";
    return oss.str();
}

std::string
flowEvent(char ph, const char *id, double ts)
{
    std::ostringstream oss;
    oss << "{\"name\":\"req\",\"cat\":\"net\",\"ph\":\"" << ph
        << "\",\"id\":\"" << id << "\",\"ts\":" << ts
        << ",\"pid\":1,\"tid\":1";
    if (ph == 'f')
        oss << ",\"bp\":\"e\"";
    oss << "}";
    return oss.str();
}

TEST(ValidateTraceTest, AcceptsAMinimalTrace)
{
    std::string error;
    TraceStats stats;
    ASSERT_TRUE(validateChromeTrace(traceDoc(spanEvent("a", 10.0)),
                                    &error, &stats))
        << error;
    EXPECT_EQ(stats.events, 1u);
    EXPECT_EQ(stats.processes, 1u);
    EXPECT_EQ(stats.mergedFrom, 0u);
}

TEST(ValidateTraceTest, RejectsStructuralViolations)
{
    std::string error;
    EXPECT_FALSE(validateChromeTrace("nonsense", &error));
    EXPECT_FALSE(validateChromeTrace("[1]", &error));
    EXPECT_FALSE(validateChromeTrace("{\"x\":1}", &error));
    // Event missing "ts".
    EXPECT_FALSE(validateChromeTrace(
        traceDoc("{\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":1}"),
        &error));
    EXPECT_NE(error.find("0"), std::string::npos) << error;
}

TEST(ValidateTraceTest, FlowEventsNeedIdAndCat)
{
    std::string error;
    EXPECT_FALSE(validateChromeTrace(
        traceDoc("{\"name\":\"req\",\"ph\":\"s\",\"ts\":1,"
                 "\"pid\":1,\"tid\":1}"),
        &error));
}

TEST(ValidateTraceTest, MergedFromMustBeAnIntegralCount)
{
    std::string error;
    for (const char *merged : {"0", "-1", "1.5", "1e30", "\"2\""}) {
        std::string doc = std::string("{\"mergedFrom\":") + merged +
                          ",\"traceEvents\":[]}";
        EXPECT_FALSE(validateChromeTrace(doc, &error)) << doc;
        EXPECT_NE(error.find("mergedFrom"), std::string::npos) << error;
    }
}

TEST(ValidateTraceTest, CompleteEventsNeedANonNegativeDuration)
{
    std::string error;
    EXPECT_FALSE(validateChromeTrace(traceDoc(spanEvent("a", 1.0, -1.0)),
                                     &error));
    EXPECT_NE(error.find("dur"), std::string::npos) << error;
    EXPECT_FALSE(validateChromeTrace(
        traceDoc("{\"name\":\"a\",\"ph\":\"X\",\"ts\":1,"
                 "\"pid\":1,\"tid\":1}"),
        &error));
    EXPECT_FALSE(validateChromeTrace(
        traceDoc("{\"name\":\"a\",\"ph\":\"X\",\"ts\":1,"
                 "\"dur\":\"1\",\"pid\":1,\"tid\":1}"),
        &error));
    // A zero-length slice is still a slice.
    EXPECT_TRUE(validateChromeTrace(traceDoc(spanEvent("a", 1.0, 0.0)),
                                    &error))
        << error;
}

TEST(ValidateTraceTest, SingleProcessFileMayHaveDanglingFlows)
{
    // A per-process file legitimately holds only one half of a flow —
    // the peer lives in another process's file.
    std::string error;
    TraceStats stats;
    ASSERT_TRUE(validateChromeTrace(
        traceDoc(flowEvent('s', "rid1", 5.0)), &error, &stats))
        << error;
    EXPECT_EQ(stats.flowStarts, 1u);
    EXPECT_EQ(stats.flowEnds, 0u);
    EXPECT_EQ(stats.unpairedFlows, 1u);
}

TEST(MergeTraceTest, NamespacesPidsAndDeclaresItself)
{
    std::vector<TraceInput> inputs = {
        {"front", traceDoc(spanEvent("net.route", 10.0) + "," +
                           flowEvent('s', "rid1", 10.5))},
        {"shard", traceDoc(spanEvent("svc.query", 3.0) + "," +
                           flowEvent('f', "rid1", 3.2))},
    };
    std::ostringstream out;
    std::string error;
    ASSERT_TRUE(mergeChromeTraces(inputs, out, &error)) << error;

    std::string merged = out.str();
    auto doc = JsonValue::parse(merged, &error);
    ASSERT_TRUE(doc) << error;
    const JsonValue *merged_from = doc->find("mergedFrom");
    ASSERT_TRUE(merged_from && merged_from->isNumber());
    EXPECT_EQ(merged_from->asNumber(), 2.0);
    // Labels survive as process_name metadata.
    EXPECT_NE(merged.find("\"front\""), std::string::npos);
    EXPECT_NE(merged.find("\"shard\""), std::string::npos);

    // And the merged document passes the stricter validation.
    TraceStats stats;
    ASSERT_TRUE(validateChromeTrace(merged, &error, &stats)) << error;
    EXPECT_EQ(stats.mergedFrom, 2u);
    EXPECT_EQ(stats.processes, 2u);
    EXPECT_EQ(stats.unpairedFlows, 0u);
}

TEST(MergeTraceTest, WallAnchorsAlignTimelines)
{
    // Input A started 1000us of wall time before input B; B's events
    // must shift right by 1000us relative to its private clock.
    std::vector<TraceInput> inputs = {
        {"a", traceDoc(spanEvent("a", 0.0), 5000)},
        {"b", traceDoc(spanEvent("b", 0.0), 6000)},
    };
    std::ostringstream out;
    std::string error;
    ASSERT_TRUE(mergeChromeTraces(inputs, out, &error)) << error;
    auto doc = JsonValue::parse(out.str(), &error);
    ASSERT_TRUE(doc) << error;
    double a_ts = -1.0, b_ts = -1.0;
    for (const JsonValue &event :
         doc->find("traceEvents")->items()) {
        const JsonValue *name = event.find("name");
        if (!name || !name->isString())
            continue;
        if (name->asString() == "a")
            a_ts = event.find("ts")->asNumber();
        if (name->asString() == "b")
            b_ts = event.find("ts")->asNumber();
    }
    ASSERT_GE(a_ts, 0.0);
    ASSERT_GE(b_ts, 0.0);
    EXPECT_DOUBLE_EQ(b_ts - a_ts, 1000.0);
}

TEST(MergeTraceTest, MergedFileRejectsUnpairedFlows)
{
    std::vector<TraceInput> inputs = {
        {"only-start", traceDoc(flowEvent('s', "rid9", 1.0))},
    };
    std::ostringstream out;
    std::string error;
    ASSERT_TRUE(mergeChromeTraces(inputs, out, &error)) << error;
    EXPECT_FALSE(validateChromeTrace(out.str(), &error));
    EXPECT_NE(error.find("flow"), std::string::npos) << error;
}

TEST(MergeTraceTest, RejectsAMalformedInput)
{
    std::vector<TraceInput> inputs = {{"bad", "not json"}};
    std::ostringstream out;
    std::string error;
    EXPECT_FALSE(mergeChromeTraces(inputs, out, &error));
    EXPECT_NE(error.find("bad"), std::string::npos) << error;
}

} // namespace
} // namespace obs
} // namespace hcm
