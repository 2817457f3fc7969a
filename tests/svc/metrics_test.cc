/** @file Tests for the query engine's metrics: the engine document
 *  writer and the counts an engine exports through metricsPayload(). */

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "svc/engine.hh"
#include "svc/service.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace svc {
namespace {

/** The document @p metrics writes with the cache counters @p cache. */
std::string
document(const EngineMetrics &metrics, const CacheStats &cache = {})
{
    std::string doc;
    JsonWriter json(doc);
    metrics.writeJson(json, cache);
    return doc;
}

/** A query of @p type at parallel fraction @p f. */
Query
query(QueryType type, double f = 0.99)
{
    Query q;
    q.type = type;
    q.f = f;
    return q;
}

/** The engine's exported JSON document, parsed. */
JsonValue
exportedDoc(const QueryEngine &engine)
{
    auto doc = JsonValue::parse(metricsPayload(&engine, "json", "svc"));
    EXPECT_TRUE(doc);
    return doc ? *doc : JsonValue();
}

/** "count" and "cacheHits" of @p type in engine document @p doc. */
std::pair<double, double>
typeCounts(const JsonValue &doc, QueryType type)
{
    const JsonValue *entry =
        doc.find("queryTypes")->find(queryTypeName(type));
    return {entry->find("count")->asNumber(),
            entry->find("cacheHits")->asNumber()};
}

TEST(MetricsRegistryTest, CountsPerType)
{
    QueryEngine engine;
    engine.evaluate(query(QueryType::Optimize));
    engine.evaluate(query(QueryType::Optimize)); // a hit
    engine.evaluate(query(QueryType::Pareto));

    JsonValue doc = exportedDoc(engine);
    EXPECT_EQ(typeCounts(doc, QueryType::Optimize),
              std::make_pair(2.0, 1.0));
    EXPECT_EQ(typeCounts(doc, QueryType::Pareto), std::make_pair(1.0, 0.0));
    EXPECT_EQ(typeCounts(doc, QueryType::Energy), std::make_pair(0.0, 0.0));
    EXPECT_DOUBLE_EQ(doc.find("totalQueries")->asNumber(), 3.0);
    std::string prom = metricsPayload(&engine, "prom", "svc");
    EXPECT_NE(prom.find("hcm_svc_query_latency_ns_count"
                        "{type=\"optimize\"} 2\n"),
              std::string::npos);
}

// Eight clients each miss on their own keys, then hit them: every
// query lands in the exported counts.
TEST(MetricsRegistryTest, ConcurrentRecordingLosesNothing)
{
    constexpr int kClients = 8;
    constexpr int kKeys = 25;
    QueryEngine engine;
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t)
        clients.emplace_back([&engine, t] {
            for (int pass = 0; pass < 2; ++pass)
                for (int i = 0; i < kKeys; ++i)
                    engine.evaluate(query(QueryType::Projection,
                                          0.5 + 0.001 * (t * kKeys + i)));
        });
    for (std::thread &client : clients)
        client.join();
    EXPECT_EQ(typeCounts(exportedDoc(engine), QueryType::Projection),
              std::make_pair(2.0 * kClients * kKeys,
                             1.0 * kClients * kKeys));
    EXPECT_NE(metricsPayload(&engine, "prom", "svc")
                  .find("hcm_svc_query_latency_ns_count"
                        "{type=\"projection\"} " +
                        std::to_string(2 * kClients * kKeys) + "\n"),
              std::string::npos);
}

TEST(MetricsRegistryTest, JsonExportHasFullSchema)
{
    EngineMetrics metrics;
    metrics.recordServed(QueryType::Optimize, 1500, false);
    CacheStats cache;
    cache.hits = 3;
    cache.misses = 1;
    cache.capacity = 64;

    auto doc = JsonValue::parse(document(metrics, cache));
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
    EngineMetrics metrics;
    metrics.recordServed(QueryType::Optimize, 1500, false);
    metrics.recordServed(QueryType::Optimize, 3000, true);
    metrics.recordServed(QueryType::Projection, 250000, false);
    metrics.recordServed(QueryType::Pareto, 0, false);
    CacheStats cache;
    cache.hits = 3;
    cache.misses = 1;
    cache.evictions = 2;
    cache.entries = 5;
    cache.bytes = 2750;
    cache.capacity = 64;

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
    EXPECT_EQ(document(metrics, cache), golden);
}

// The engine's Prometheus payload is EngineMetrics::writePrometheus
// over its live cache counters (RequestRouterTest pins those bytes);
// distinct hand-set values here catch a series reading the wrong one.
TEST(MetricsRegistryTest, PrometheusExportCoversTypesAndCache)
{
    EngineMetrics metrics;
    metrics.recordServed(QueryType::Optimize, 1500, false);
    metrics.recordServed(QueryType::Optimize, 3000, true);
    CacheStats cache;
    cache.hits = 3;
    cache.misses = 1;
    cache.evictions = 2;
    cache.entries = 5;
    cache.bytes = 2750;
    cache.capacity = 64;

    std::ostringstream out;
    metrics.writePrometheus(out, cache);
    std::string text = out.str();
    for (const char *line :
         {"# TYPE hcm_svc_queries_total counter\n",
          "hcm_svc_queries_total{type=\"optimize\"} 2\n",
          "hcm_svc_queries_total{type=\"pareto\"} 0\n",
          "hcm_svc_query_cache_hits_total{type=\"optimize\"} 1\n",
          "# TYPE hcm_svc_query_latency_ns histogram\n",
          "hcm_svc_query_latency_ns_count{type=\"optimize\"} 2\n",
          "hcm_svc_query_latency_ns_sum{type=\"optimize\"} 4500\n",
          "hcm_svc_cache_hits_total 3\n",
          "hcm_svc_cache_misses_total 1\n",
          "hcm_svc_cache_evictions_total 2\n",
          "hcm_svc_cache_entries 5\n",
          "# TYPE hcm_svc_cache_bytes gauge\n",
          "hcm_svc_cache_bytes 2750\n",
          "hcm_svc_cache_capacity 64\n",
          // The slow-query counter rides in the same registry (0 here).
          "# TYPE hcm_svc_slow_queries_total counter\n",
          "hcm_svc_slow_queries_total 0\n"})
        EXPECT_NE(text.find(line), std::string::npos) << line;
}

TEST(MetricsRegistryTest, SlowQueriesCountAndExport)
{
    EngineMetrics metrics;
    metrics.slowQueries->add(2);
    auto doc = JsonValue::parse(document(metrics));
    ASSERT_TRUE(doc);
    EXPECT_DOUBLE_EQ(doc->find("slowQueries")->asNumber(), 2.0);

    QueryEngine engine;
    EXPECT_NE(metricsPayload(&engine, "prom", "svc")
                  .find("hcm_svc_slow_queries_total 0\n"),
              std::string::npos);
}

TEST(MetricsRegistryTest, FailureCountersCountAndExport)
{
    EngineMetrics metrics;
    metrics.errors->add(2);
    metrics.deadlineExceeded->add(1);
    metrics.rejected->add(3);
    auto doc = JsonValue::parse(document(metrics));
    ASSERT_TRUE(doc);
    EXPECT_DOUBLE_EQ(doc->find("errors")->asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(doc->find("deadlineExceeded")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(doc->find("rejected")->asNumber(), 3.0);

    // Every engine exports the three outcome counters, at 0 until a
    // query fails (QueryEngineLifecycleTest drives each one).
    QueryEngine engine;
    std::string text = metricsPayload(&engine, "prom", "svc");
    for (const char *line : {"# TYPE hcm_svc_errors_total counter\n"
                             "hcm_svc_errors_total 0\n",
                             "# TYPE hcm_svc_deadline_exceeded_total "
                             "counter\n"
                             "hcm_svc_deadline_exceeded_total 0\n",
                             "# TYPE hcm_svc_rejected_total counter\n"
                             "hcm_svc_rejected_total 0\n"})
        EXPECT_NE(text.find(line), std::string::npos) << line;
}

} // namespace
} // namespace svc
} // namespace hcm
