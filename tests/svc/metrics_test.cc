/** @file Tests for the query engine's metrics registry. */

#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "svc/metrics.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace svc {
namespace {

TEST(MetricsRegistryTest, CountsPerType)
{
    MetricsRegistry reg;
    reg.recordQuery(QueryType::Optimize, 1000, false);
    reg.recordQuery(QueryType::Optimize, 2000, true);
    reg.recordQuery(QueryType::Pareto, 5000, false);

    QueryTypeStats opt = reg.snapshot(QueryType::Optimize);
    EXPECT_EQ(opt.queries, 2u);
    EXPECT_EQ(opt.cacheHits, 1u);
    EXPECT_EQ(opt.latency.count(), 2u);
    EXPECT_EQ(reg.snapshot(QueryType::Pareto).queries, 1u);
    EXPECT_EQ(reg.snapshot(QueryType::Energy).queries, 0u);
    EXPECT_EQ(reg.totalQueries(), 3u);
}

TEST(MetricsRegistryTest, ConcurrentRecordingLosesNothing)
{
    MetricsRegistry reg;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&reg] {
            for (int i = 0; i < 1000; ++i)
                reg.recordQuery(QueryType::Projection, 100, i % 2 == 0);
        });
    for (std::thread &th : threads)
        th.join();
    QueryTypeStats stats = reg.snapshot(QueryType::Projection);
    EXPECT_EQ(stats.queries, 8000u);
    EXPECT_EQ(stats.cacheHits, 4000u);
    EXPECT_EQ(stats.latency.count(), 8000u);
}

TEST(MetricsRegistryTest, JsonExportHasFullSchema)
{
    MetricsRegistry reg;
    reg.recordQuery(QueryType::Optimize, 1500, false);
    CacheStats cache;
    cache.hits = 3;
    cache.misses = 1;
    cache.capacity = 64;

    std::ostringstream oss;
    {
        JsonWriter json(oss);
        reg.writeJson(json, &cache);
    }
    auto doc = JsonValue::parse(oss.str());
    ASSERT_TRUE(doc);
    EXPECT_DOUBLE_EQ(doc->find("totalQueries")->asNumber(), 1.0);
    const JsonValue *types = doc->find("queryTypes");
    ASSERT_NE(types, nullptr);
    for (QueryType t : allQueryTypes()) {
        const JsonValue *entry = types->find(queryTypeName(t));
        ASSERT_NE(entry, nullptr) << queryTypeName(t);
        const JsonValue *latency = entry->find("latencyMs");
        ASSERT_NE(latency, nullptr);
        for (const char *k : {"mean", "p50", "p95", "p99"})
            EXPECT_NE(latency->find(k), nullptr) << k;
    }
    const JsonValue *cache_json = doc->find("cache");
    ASSERT_NE(cache_json, nullptr);
    EXPECT_DOUBLE_EQ(cache_json->find("hitRate")->asNumber(), 0.75);
}

// Golden file: the exact bytes the seed implementation produced for
// this recording sequence, captured before the registry migration. The
// wire format is consumed by external tooling, so changes must be
// additive and deliberate. Deliberate changes so far: the slow-query
// subsystem added "slowQueries" right after "totalQueries", and the
// request-lifecycle work added "errors", "deadlineExceeded", and
// "rejected" right after "slowQueries".
TEST(MetricsRegistryTest, JsonExportMatchesGoldenBytes)
{
    MetricsRegistry reg;
    reg.recordQuery(QueryType::Optimize, 1500, false);
    reg.recordQuery(QueryType::Optimize, 3000, true);
    reg.recordQuery(QueryType::Projection, 250000, false);
    reg.recordQuery(QueryType::Pareto, 0, false);
    CacheStats cache;
    cache.hits = 3;
    cache.misses = 1;
    cache.evictions = 2;
    cache.entries = 5;
    cache.bytes = 2750;
    cache.capacity = 64;

    std::ostringstream oss;
    {
        JsonWriter json(oss);
        reg.writeJson(json, &cache);
    }
    const std::string golden =
        "{\"totalQueries\":4,\"slowQueries\":0,\"errors\":0,"
        "\"deadlineExceeded\":0,\"rejected\":0,\"queryTypes\":{"
        "\"optimize\":{\"count\":2,\"cacheHits\":1,\"latencyMs\":{"
        "\"mean\":0.00225,\"p50\":0.002048,\"p95\":0.0038912,"
        "\"p99\":0.00405504}},"
        "\"projection\":{\"count\":1,\"cacheHits\":0,\"latencyMs\":{"
        "\"mean\":0.25,\"p50\":0.196608,\"p95\":0.2555904,"
        "\"p99\":0.26083328}},"
        "\"energy\":{\"count\":0,\"cacheHits\":0,\"latencyMs\":{"
        "\"mean\":0,\"p50\":0,\"p95\":0,\"p99\":0}},"
        "\"pareto\":{\"count\":1,\"cacheHits\":0,\"latencyMs\":{"
        "\"mean\":0,\"p50\":1e-06,\"p95\":1.9e-06,\"p99\":1.98e-06}}},"
        "\"cache\":{\"hits\":3,\"misses\":1,\"evictions\":2,"
        "\"entries\":5,\"bytes\":2750,\"capacity\":64,"
        "\"hitRate\":0.75}}";
    EXPECT_EQ(oss.str(), golden);
}

TEST(MetricsRegistryTest, PrometheusExportCoversTypesAndCache)
{
    MetricsRegistry reg;
    reg.recordQuery(QueryType::Optimize, 1500, false);
    reg.recordQuery(QueryType::Optimize, 3000, true);
    CacheStats cache;
    cache.hits = 3;
    cache.misses = 1;
    cache.evictions = 2;
    cache.entries = 5;
    cache.bytes = 2750;
    cache.capacity = 64;

    std::ostringstream oss;
    reg.writePrometheus(oss, &cache);
    std::string text = oss.str();

    EXPECT_NE(text.find("# TYPE hcm_svc_queries_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("hcm_svc_queries_total{type=\"optimize\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("hcm_svc_queries_total{type=\"pareto\"} 0\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("hcm_svc_query_cache_hits_total{type=\"optimize\"} 1\n"),
        std::string::npos);
    EXPECT_NE(text.find("# TYPE hcm_svc_query_latency_ns histogram\n"),
              std::string::npos);
    EXPECT_NE(text.find("hcm_svc_query_latency_ns_count"
                        "{type=\"optimize\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("hcm_svc_query_latency_ns_sum"
                        "{type=\"optimize\"} 4500\n"),
              std::string::npos);
    EXPECT_NE(text.find("hcm_svc_cache_hits_total 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("hcm_svc_cache_misses_total 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("hcm_svc_cache_evictions_total 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("hcm_svc_cache_entries 5\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE hcm_svc_cache_bytes gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("hcm_svc_cache_bytes 2750\n"), std::string::npos);
    EXPECT_NE(text.find("hcm_svc_cache_capacity 64\n"),
              std::string::npos);
    // The slow-query counter rides in the same registry (0 here).
    EXPECT_NE(text.find("# TYPE hcm_svc_slow_queries_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("hcm_svc_slow_queries_total 0\n"),
              std::string::npos);
}

TEST(MetricsRegistryTest, SlowQueriesCountAndExport)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.slowQueries(), 0u);
    reg.recordSlowQuery();
    reg.recordSlowQuery();
    EXPECT_EQ(reg.slowQueries(), 2u);

    std::ostringstream oss;
    {
        JsonWriter json(oss);
        reg.writeJson(json);
    }
    auto doc = JsonValue::parse(oss.str());
    ASSERT_TRUE(doc);
    EXPECT_DOUBLE_EQ(doc->find("slowQueries")->asNumber(), 2.0);

    std::ostringstream prom;
    reg.writePrometheus(prom);
    EXPECT_NE(prom.str().find("hcm_svc_slow_queries_total 2\n"),
              std::string::npos);
}

TEST(MetricsRegistryTest, FailureCountersCountAndExport)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.errors(), 0u);
    EXPECT_EQ(reg.deadlineExceeded(), 0u);
    EXPECT_EQ(reg.rejected(), 0u);
    reg.recordError();
    reg.recordError();
    reg.recordDeadlineExceeded();
    reg.recordRejected();
    reg.recordRejected();
    reg.recordRejected();
    EXPECT_EQ(reg.errors(), 2u);
    EXPECT_EQ(reg.deadlineExceeded(), 1u);
    EXPECT_EQ(reg.rejected(), 3u);

    std::ostringstream oss;
    {
        JsonWriter json(oss);
        reg.writeJson(json);
    }
    auto doc = JsonValue::parse(oss.str());
    ASSERT_TRUE(doc);
    EXPECT_DOUBLE_EQ(doc->find("errors")->asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(doc->find("deadlineExceeded")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(doc->find("rejected")->asNumber(), 3.0);

    std::ostringstream prom;
    reg.writePrometheus(prom);
    std::string text = prom.str();
    EXPECT_NE(text.find("# TYPE hcm_svc_errors_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("hcm_svc_errors_total 2\n"), std::string::npos);
    EXPECT_NE(
        text.find("# TYPE hcm_svc_deadline_exceeded_total counter\n"),
        std::string::npos);
    EXPECT_NE(text.find("hcm_svc_deadline_exceeded_total 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE hcm_svc_rejected_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("hcm_svc_rejected_total 3\n"),
              std::string::npos);
}

} // namespace
} // namespace svc
} // namespace hcm
