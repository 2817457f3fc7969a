/** @file Tests for the bounded per-process flight recorder. */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "svc/flight_recorder.hh"
#include "util/json.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace svc {
namespace {

/** The recorder is a process singleton: every test resets it. */
class FlightRecorderTest : public ::testing::Test
{
  protected:
    void SetUp() override { FlightRecorder::instance().configure(0); }
    void TearDown() override
    {
        FlightRecorder::instance().configure(0);
    }

    static RequestRecord
    makeRecord(const std::string &rid, const std::string &outcome)
    {
        RequestRecord rec;
        rec.requestId = rid;
        rec.type = "optimize";
        rec.outcome = outcome;
        rec.queueNs = 1000000;  // 1ms
        rec.evalNs = 2000000;   // 2ms
        return rec;
    }
};

TEST_F(FlightRecorderTest, DisabledByDefaultAndRecordsNothing)
{
    FlightRecorder &recorder = FlightRecorder::instance();
    EXPECT_FALSE(recorder.enabled());
    recorder.record(makeRecord("r1", "ok"));
    EXPECT_TRUE(recorder.snapshot().empty());
    EXPECT_EQ(recorder.recordedTotal(), 0u);
}

TEST_F(FlightRecorderTest, KeepsRecordsInOrderBelowCapacity)
{
    FlightRecorder &recorder = FlightRecorder::instance();
    recorder.configure(4);
    EXPECT_TRUE(recorder.enabled());
    recorder.record(makeRecord("r1", "ok"));
    recorder.record(makeRecord("r2", "hit"));
    auto records = recorder.snapshot();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].requestId, "r1");
    EXPECT_EQ(records[1].requestId, "r2");
    EXPECT_EQ(recorder.recordedTotal(), 2u);
}

TEST_F(FlightRecorderTest, RingWrapsKeepingTheNewestOldestFirst)
{
    FlightRecorder &recorder = FlightRecorder::instance();
    recorder.configure(3);
    for (int i = 1; i <= 7; ++i) {
        // Appended, not "r" + std::to_string(i): GCC 12 reports a false
        // -Wrestrict in the inlined operator+ at -O2.
        std::string id = "r";
        id += std::to_string(i);
        recorder.record(makeRecord(id, "ok"));
    }
    auto records = recorder.snapshot();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].requestId, "r5");
    EXPECT_EQ(records[1].requestId, "r6");
    EXPECT_EQ(records[2].requestId, "r7");
    EXPECT_EQ(recorder.recordedTotal(), 7u);
}

TEST_F(FlightRecorderTest, ReconfigureDropsHistory)
{
    FlightRecorder &recorder = FlightRecorder::instance();
    recorder.configure(4);
    recorder.record(makeRecord("r1", "ok"));
    recorder.configure(4);
    EXPECT_TRUE(recorder.snapshot().empty());
    EXPECT_EQ(recorder.recordedTotal(), 0u);
}

TEST_F(FlightRecorderTest, JsonCarriesBreakdownAndDashForMissingId)
{
    FlightRecorder &recorder = FlightRecorder::instance();
    recorder.configure(2);
    recorder.record(makeRecord("", "evaluation_failed"));
    std::ostringstream oss;
    {
        JsonWriter json(oss);
        recorder.writeJson(json);
    }
    std::string error;
    auto doc = JsonValue::parse(oss.str(), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(doc->find("capacity")->asNumber(), 2.0);
    EXPECT_EQ(doc->find("recorded")->asNumber(), 1.0);
    const JsonValue *records = doc->find("records");
    ASSERT_TRUE(records && records->isArray());
    const JsonValue &rec = *records->items().begin();
    EXPECT_EQ(rec.find("requestId")->asString(), "-");
    EXPECT_EQ(rec.find("outcome")->asString(), "evaluation_failed");
    EXPECT_DOUBLE_EQ(rec.find("queueMs")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(rec.find("evalMs")->asNumber(), 2.0);
    // No shard hop on a local record: the member is omitted.
    EXPECT_EQ(rec.find("shard"), nullptr);
}

} // namespace
} // namespace svc
} // namespace hcm
