/** @file Tests for fleet scraping, aggregation, and rendering. */

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/fleet.hh"
#include "net/front_door.hh"
#include "util/json.hh"

namespace hcm {
namespace net {
namespace {

/** Scriptable backend: serves a canned scrape payload or fails. */
class StubBackend : public ShardBackend
{
  public:
    explicit StubBackend(std::string name) : _name(std::move(name)) {}

    const std::string &name() const override { return _name; }

    bool
    roundTrip(const std::string &request, std::string *response,
              std::string *error) override
    {
        lastRequest = request;
        ++roundTrips;
        if (!up) {
            *error = "connection refused";
            return false;
        }
        *response = payload;
        return true;
    }

    bool up = true;
    std::string payload;
    std::string lastRequest;
    std::atomic<int> roundTrips{0};

  private:
    std::string _name;
};

/** A scrape payload in the {"type":"metrics","scope":"all"} shape. */
std::string
scrapePayload(int total_queries)
{
    std::ostringstream oss;
    oss << "{\"svc\":{\"totalQueries\":" << total_queries
        << ",\"slowQueries\":1,\"errors\":2,\"deadlineExceeded\":0,"
           "\"rejected\":3,\"queryTypes\":{\"optimize\":{\"count\":"
        << total_queries
        << ",\"cacheHits\":4,\"latencyMs\":{\"mean\":2.0,\"p50\":1.5,"
           "\"p95\":4.0,\"p99\":9.0}}},"
           "\"cache\":{\"hits\":4,\"misses\":6,\"evictions\":0,"
           "\"entries\":6,\"capacity\":100,\"hitRate\":0.4}},"
           "\"process\":{\"counters\":[],\"gauges\":["
           "{\"name\":\"hcm_pool_queue_depth\",\"value\":5},"
           "{\"name\":\"hcm_pool_queue_depth\",\"value\":2},"
           "{\"name\":\"hcm_process_uptime_seconds\",\"value\":42},"
           "{\"name\":\"hcm_process_resident_memory_bytes\","
           "\"value\":1048576},"
           "{\"name\":\"hcm_process_peak_resident_memory_bytes\","
           "\"value\":2097152}],\"histograms\":[]}}";
    return oss.str();
}

TEST(FleetCollectorTest, ScrapeDistillsTheMetricsPayload)
{
    StubBackend shard("shard-0");
    shard.payload = scrapePayload(10);
    FleetCollector fleet({&shard});
    EXPECT_FALSE(fleet.everScraped());
    fleet.scrapeOnce();
    EXPECT_TRUE(fleet.everScraped());
    EXPECT_NE(shard.lastRequest.find("\"scope\":\"all\""),
              std::string::npos);

    auto rows = fleet.snapshot();
    ASSERT_EQ(rows.size(), 1u);
    const ShardStatus &status = rows[0];
    EXPECT_EQ(status.name, "shard-0");
    EXPECT_TRUE(status.up);
    EXPECT_EQ(status.queries, 10u);
    EXPECT_EQ(status.errors, 2u);
    EXPECT_EQ(status.rejected, 3u);
    EXPECT_EQ(status.slowQueries, 1u);
    EXPECT_DOUBLE_EQ(status.p50Ms, 1.5);
    EXPECT_DOUBLE_EQ(status.p95Ms, 4.0);
    EXPECT_DOUBLE_EQ(status.p99Ms, 9.0);
    EXPECT_DOUBLE_EQ(status.cacheHitRate, 0.4);
    EXPECT_EQ(status.queueDepth, 7); // both pool gauges summed
    EXPECT_EQ(status.uptimeSec, 42);
    EXPECT_EQ(status.rssBytes, 1048576);
    EXPECT_EQ(status.peakRssBytes, 2097152);
    // One sample cannot make a rate.
    EXPECT_DOUBLE_EQ(status.qps, 0.0);
}

TEST(FleetCollectorTest, SecondScrapeYieldsAQpsRate)
{
    StubBackend shard("shard-0");
    shard.payload = scrapePayload(10);
    FleetCollector fleet({&shard});
    fleet.scrapeOnce();
    shard.payload = scrapePayload(110);
    fleet.scrapeOnce();
    auto rows = fleet.snapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].queries, 110u);
    // 100 queries over a sub-second gap: a visibly positive rate.
    EXPECT_GT(rows[0].qps, 0.0);
}

TEST(FleetCollectorTest, DownShardKeepsLastGoodCumulativeValues)
{
    StubBackend shard("shard-0");
    shard.payload = scrapePayload(10);
    FleetCollector fleet({&shard});
    fleet.scrapeOnce();
    shard.up = false;
    fleet.scrapeOnce();
    auto rows = fleet.snapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_FALSE(rows[0].up);
    EXPECT_EQ(rows[0].error, "connection refused");
    EXPECT_DOUBLE_EQ(rows[0].qps, 0.0);
    EXPECT_EQ(rows[0].queries, 10u); // stale, not zeroed
}

TEST(FleetStatusTest, JsonRoundTripsThroughTheParser)
{
    StubBackend good("shard-0");
    good.payload = scrapePayload(10);
    StubBackend bad("shard-1");
    bad.up = false;
    FleetCollector fleet({&good, &bad});
    fleet.scrapeOnce();
    auto rows = fleet.snapshot();

    std::ostringstream oss;
    {
        JsonWriter json(oss);
        json.beginObject();
        json.key("shards");
        writeShardStatusJson(json, rows);
        json.key("front").beginObject();
        json.kv("routed", 7);
        json.kv("shed", 1);
        json.kv("shardUnavailable", 2);
        json.endObject();
        json.endObject();
    }

    std::vector<ShardStatus> parsed;
    FrontCounters front;
    std::string error;
    ASSERT_TRUE(parseFleetResponse(oss.str(), &parsed, &front, &error))
        << error;
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].name, "shard-0");
    EXPECT_TRUE(parsed[0].up);
    EXPECT_EQ(parsed[0].queries, 10u);
    EXPECT_DOUBLE_EQ(parsed[0].p95Ms, rows[0].p95Ms);
    EXPECT_EQ(parsed[0].queueDepth, rows[0].queueDepth);
    EXPECT_EQ(parsed[0].peakRssBytes, rows[0].peakRssBytes);
    EXPECT_FALSE(parsed[1].up);
    EXPECT_EQ(parsed[1].error, "connection refused");
    EXPECT_EQ(front.routed, 7u);
    EXPECT_EQ(front.shed, 1u);
    EXPECT_EQ(front.shardUnavailable, 2u);
}

TEST(FleetStatusTest, ParserRejectsNonFleetPayloads)
{
    std::vector<ShardStatus> parsed;
    FrontCounters front;
    std::string error;
    EXPECT_FALSE(
        parseFleetResponse("nonsense", &parsed, &front, &error));
    EXPECT_FALSE(
        parseFleetResponse("{\"x\":1}", &parsed, &front, &error));
    EXPECT_NE(error.find("shards"), std::string::npos) << error;
}

TEST(FleetStatusTest, TableKeysRowsByShardName)
{
    StubBackend good("shard-0");
    good.payload = scrapePayload(10);
    StubBackend bad("127.0.0.1:7302");
    bad.up = false;
    FleetCollector fleet({&good, &bad});
    fleet.scrapeOnce();
    std::string table = renderFleetTable(fleet.snapshot());
    EXPECT_NE(table.find("SHARD"), std::string::npos);
    EXPECT_NE(table.find("P95MS"), std::string::npos);
    EXPECT_NE(table.find("PEAK_MB"), std::string::npos);
    EXPECT_NE(table.find("shard-0"), std::string::npos);
    EXPECT_NE(table.find("127.0.0.1:7302"), std::string::npos);
    EXPECT_NE(table.find("connection refused"), std::string::npos);
}

TEST(FleetCollectorTest, PeriodicScrapingRunsWithoutARequest)
{
    StubBackend shard("shard-0");
    shard.payload = scrapePayload(10);
    {
        FleetCollector fleet({&shard});
        EXPECT_FALSE(fleet.periodic());
        fleet.start(1);
        EXPECT_TRUE(fleet.periodic());
        // The loop scrapes immediately; wait for it.
        for (int i = 0; i < 200 && !fleet.everScraped(); ++i)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        EXPECT_TRUE(fleet.everScraped());
    } // destructor joins the scraper thread
}

TEST(FleetCollectorTest, LongestScrapeIntervalWaitsInsteadOfSpinning)
{
    // The largest interval --scrape-interval-ms takes, 1.8e13 ms, ends
    // past the steady clock's range; a wrapped deadline would rescrape
    // at once, over and over.
    StubBackend shard("shard-0");
    shard.payload = scrapePayload(10);
    {
        FleetCollector fleet({&shard});
        fleet.start(18000000000000ull);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        EXPECT_EQ(shard.roundTrips.load(), 1);
    }
}

} // namespace
} // namespace net
} // namespace hcm
