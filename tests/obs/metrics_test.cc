/** @file Tests for the generic metrics registry and its exporters. */

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentAddsLoseNothing)
{
    Counter c;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&c] {
            for (int i = 0; i < 10000; ++i)
                c.add();
        });
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(c.value(), 80000u);
}

TEST(GaugeTest, SetAndAddAllowNegatives)
{
    Gauge g;
    g.set(10);
    g.add(-15);
    EXPECT_EQ(g.value(), -5);
    g.set(0);
    EXPECT_EQ(g.value(), 0);
}

TEST(HistogramTest, EmptyIsAllZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.0);
}

TEST(HistogramTest, SingleSamplePercentilesLandInItsBucket)
{
    Histogram h;
    h.record(1000); // bucket [512, 1024)
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
    for (double p : {1.0, 50.0, 99.0, 100.0}) {
        double v = h.percentile(p);
        EXPECT_GE(v, 512.0) << "p" << p;
        EXPECT_LE(v, 1024.0) << "p" << p;
    }
}

TEST(HistogramTest, ZeroValueLandsInBucketZero)
{
    Histogram h;
    h.record(0);
    h.record(1);
    EXPECT_EQ(h.bucketCount(0), 2u); // bucket 0 covers 0 and 1
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.sum(), 1u);
    EXPECT_LE(h.percentile(50.0), 2.0);
}

TEST(HistogramTest, MaxValueLandsInTopBucketWithoutOverflow)
{
    Histogram h;
    h.record(std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(h.bucketCount(Histogram::kBuckets - 1), 1u);
    EXPECT_EQ(h.count(), 1u);
    // p100 interpolates to the top bucket's upper edge (2^64); it must
    // be finite and at least the bucket's lower edge.
    double p100 = h.percentile(100.0);
    EXPECT_GE(p100, std::ldexp(1.0, 63));
    EXPECT_LE(p100, Histogram::bucketUpperEdge(Histogram::kBuckets - 1));
}

TEST(HistogramTest, MeanIsExact)
{
    Histogram h;
    h.record(100);
    h.record(200);
    h.record(300);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(HistogramTest, PercentilesWithinBucketResolution)
{
    Histogram h;
    // 99 samples at ~1us, one at ~1ms: p50 must sit near 1us, p99
    // within a power of two of... the tail sample.
    for (int i = 0; i < 99; ++i)
        h.record(1000);
    h.record(1000000);
    double p50 = h.percentile(50.0);
    EXPECT_GE(p50, 512.0);
    EXPECT_LE(p50, 2048.0);
    double p99 = h.percentile(99.0);
    EXPECT_LE(p99, 2048.0); // the 99th sample is still a fast one
    double p995 = h.percentile(99.5);
    EXPECT_GE(p995, 524288.0); // the slow sample's bucket
}

TEST(HistogramTest, PercentilesAreMonotonic)
{
    Histogram h;
    for (std::uint64_t ns : {10u, 100u, 1000u, 10000u, 100000u})
        for (int i = 0; i < 20; ++i)
            h.record(ns);
    double last = 0.0;
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
        double v = h.percentile(p);
        EXPECT_GE(v, last) << "p" << p;
        last = v;
    }
}

TEST(HistogramTest, BucketEdgesArePowersOfTwo)
{
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperEdge(0), 2.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperEdge(9), 1024.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperEdge(Histogram::kBuckets - 1),
                     std::ldexp(1.0, 64));
}

TEST(HistogramTest, CopyIsAConsistentSnapshot)
{
    Histogram h;
    h.record(100);
    h.record(200);
    Histogram snap = h;
    h.record(300);
    EXPECT_EQ(snap.count(), 2u);
    EXPECT_EQ(snap.sum(), 300u);
    EXPECT_EQ(h.count(), 3u);
}

TEST(HistogramTest, ConcurrentRecordingLosesNothing)
{
    Histogram h;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&h] {
            for (int i = 0; i < 5000; ++i)
                h.record(64);
        });
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(h.count(), 40000u);
    EXPECT_EQ(h.sum(), 40000u * 64u);
}

TEST(RegistryTest, RegistrationIsIdempotent)
{
    Registry reg;
    Counter &a = reg.counter("requests_total", {{"type", "optimize"}});
    Counter &b = reg.counter("requests_total", {{"type", "optimize"}});
    EXPECT_EQ(&a, &b);
    Counter &c = reg.counter("requests_total", {{"type", "pareto"}});
    EXPECT_NE(&a, &c);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(RegistryTest, DistinguishesKindsAndLabels)
{
    Registry reg;
    reg.counter("a");
    reg.gauge("b");
    reg.histogram("c");
    reg.counter("a", {{"k", "v"}});
    EXPECT_EQ(reg.size(), 4u);
}

TEST(RegistryTest, JsonExportParsesAndCarriesValues)
{
    Registry reg;
    reg.counter("hits_total", {{"tier", "l1"}}).add(7);
    reg.gauge("depth").set(-3);
    Histogram &h = reg.histogram("lat_ns");
    h.record(1000);
    h.record(2000);

    std::ostringstream oss;
    {
        JsonWriter json(oss);
        reg.writeJson(json);
    }
    auto doc = JsonValue::parse(oss.str());
    ASSERT_TRUE(doc);

    const JsonValue *counters = doc->find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_EQ(counters->size(), 1u);
    const JsonValue &counter = counters->items()[0];
    EXPECT_EQ(counter.find("name")->asString(), "hits_total");
    EXPECT_EQ(counter.find("labels")->find("tier")->asString(), "l1");
    EXPECT_DOUBLE_EQ(counter.find("value")->asNumber(), 7.0);

    const JsonValue *gauges = doc->find("gauges");
    ASSERT_NE(gauges, nullptr);
    ASSERT_EQ(gauges->size(), 1u);
    EXPECT_DOUBLE_EQ(gauges->items()[0].find("value")->asNumber(), -3.0);

    const JsonValue *hists = doc->find("histograms");
    ASSERT_NE(hists, nullptr);
    ASSERT_EQ(hists->size(), 1u);
    const JsonValue &entry = hists->items()[0];
    EXPECT_DOUBLE_EQ(entry.find("count")->asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(entry.find("sum")->asNumber(), 3000.0);
    EXPECT_DOUBLE_EQ(entry.find("mean")->asNumber(), 1500.0);
    EXPECT_NE(entry.find("p50"), nullptr);
    EXPECT_NE(entry.find("p95"), nullptr);
    EXPECT_NE(entry.find("p99"), nullptr);
}

TEST(RegistryTest, PrometheusExportHasTypedGroupedSeries)
{
    Registry reg;
    // Register interleaved so the exporter has to group by name.
    reg.counter("req_total", {{"type", "a"}}).add(1);
    reg.gauge("depth").set(5);
    reg.counter("req_total", {{"type", "b"}}).add(2);

    std::ostringstream oss;
    reg.writePrometheus(oss);
    std::string text = oss.str();

    EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
    EXPECT_NE(text.find("req_total{type=\"a\"} 1\n"), std::string::npos);
    EXPECT_NE(text.find("req_total{type=\"b\"} 2\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE depth gauge\n"), std::string::npos);
    EXPECT_NE(text.find("depth 5\n"), std::string::npos);
    // Series of one name must be contiguous: the two req_total samples
    // appear before the depth TYPE comment splits them... i.e. exactly
    // one TYPE comment per name.
    std::size_t first = text.find("# TYPE req_total");
    std::size_t second = text.find("# TYPE req_total", first + 1);
    EXPECT_EQ(second, std::string::npos);
}

TEST(RegistryTest, PrometheusHistogramIsCumulative)
{
    Registry reg;
    Histogram &h = reg.histogram("lat");
    h.record(1);    // bucket 0, le="2"
    h.record(1000); // bucket 9, le="1024"

    std::ostringstream oss;
    reg.writePrometheus(oss);
    std::string text = oss.str();

    EXPECT_NE(text.find("# TYPE lat histogram\n"), std::string::npos);
    EXPECT_NE(text.find("lat_bucket{le=\"2\"} 1\n"), std::string::npos);
    EXPECT_NE(text.find("lat_bucket{le=\"1024\"} 2\n"), std::string::npos);
    EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
    EXPECT_NE(text.find("lat_sum 1001\n"), std::string::npos);
    EXPECT_NE(text.find("lat_count 2\n"), std::string::npos);
}

TEST(RegistryTest, PrometheusEscapesLabelValues)
{
    Registry reg;
    reg.counter("c", {{"msg", "a\"b\\c\nd"}}).add(1);
    std::ostringstream oss;
    reg.writePrometheus(oss);
    EXPECT_NE(oss.str().find("c{msg=\"a\\\"b\\\\c\\nd\"} 1\n"),
              std::string::npos);
}

TEST(RegistryTest, PrometheusEscapesQuoteAlone)
{
    Registry reg;
    reg.counter("c", {{"msg", "say \"hi\""}}).add(1);
    std::ostringstream oss;
    reg.writePrometheus(oss);
    EXPECT_NE(oss.str().find("c{msg=\"say \\\"hi\\\"\"} 1\n"),
              std::string::npos)
        << oss.str();
}

TEST(RegistryTest, PrometheusEscapesBackslashAlone)
{
    Registry reg;
    reg.counter("c", {{"path", "a\\b"}}).add(1);
    std::ostringstream oss;
    reg.writePrometheus(oss);
    EXPECT_NE(oss.str().find("c{path=\"a\\\\b\"} 1\n"),
              std::string::npos)
        << oss.str();
}

TEST(RegistryTest, PrometheusEscapesNewlineAlone)
{
    Registry reg;
    reg.counter("c", {{"msg", "two\nlines"}}).add(1);
    std::ostringstream oss;
    reg.writePrometheus(oss);
    std::string text = oss.str();
    // The newline must be the two characters '\' 'n', keeping the
    // sample on one physical line.
    EXPECT_NE(text.find("c{msg=\"two\\nlines\"} 1\n"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("two\nlines"), std::string::npos) << text;
}

TEST(RegistryTest, PrometheusZeroSampleHistogramStaysWellFormed)
{
    Registry reg;
    reg.histogram("lat_empty"); // registered, never recorded
    std::ostringstream oss;
    reg.writePrometheus(oss);
    std::string text = oss.str();
    EXPECT_NE(text.find("# TYPE lat_empty histogram\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("lat_empty_bucket{le=\"2\"} 0\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("lat_empty_bucket{le=\"+Inf\"} 0\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("lat_empty_sum 0\n"), std::string::npos)
        << text;
    EXPECT_NE(text.find("lat_empty_count 0\n"), std::string::npos)
        << text;
}

TEST(RegistryTest, JsonZeroSampleHistogramOmitsPercentiles)
{
    Registry reg;
    reg.histogram("lat_empty");
    std::ostringstream oss;
    {
        JsonWriter json(oss);
        reg.writeJson(json);
    }
    auto doc = JsonValue::parse(oss.str());
    ASSERT_TRUE(doc);
    const JsonValue &entry = doc->find("histograms")->items()[0];
    EXPECT_DOUBLE_EQ(entry.find("count")->asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(entry.find("sum")->asNumber(), 0.0);
    // Percentiles of nothing are meaningless; the export drops them
    // rather than reporting a fake 0.
    EXPECT_EQ(entry.find("p50"), nullptr);
    EXPECT_EQ(entry.find("p95"), nullptr);
    EXPECT_EQ(entry.find("p99"), nullptr);
}

TEST(RegistryTest, GlobalRegistryIsASingleton)
{
    EXPECT_EQ(&globalRegistry(), &globalRegistry());
}

} // namespace
} // namespace obs
} // namespace hcm
