/** @file Tests for the batch engine: ordering, memoization, in-flight
 *  dedup, metrics plumbing, cross-configuration determinism, and the
 *  request-lifecycle failure paths (errors, deadlines, overload). */

#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "svc/engine.hh"
#include "svc/fault.hh"
#include "svc/flight_recorder.hh"
#include "svc/service.hh"
#include "util/json_parse.hh"
#include "util/logging.hh"

namespace hcm {
namespace svc {
namespace {

/** The series of family @p name for query type @p type. */
std::string
typed(const std::string &name, QueryType type)
{
    return name + "{type=\"" + queryTypeName(type) + "\"}";
}

/**
 * The value of Prometheus series @p series (a name and its labels) in
 * the engine's exported metrics; fails the test when it is absent.
 */
std::uint64_t
exported(const QueryEngine &engine, const std::string &series)
{
    std::string text = "\n" + metricsPayload(&engine, "prom", "svc");
    std::size_t at = text.find("\n" + series + " ");
    EXPECT_NE(at, std::string::npos) << series;
    if (at == std::string::npos)
        return 0;
    return std::stoull(text.substr(at + series.size() + 2));
}

/** A mixed workload of distinct queries (some expensive). */
std::vector<Query>
mixedQueries()
{
    std::vector<Query> queries;
    for (double f : {0.5, 0.9, 0.99}) {
        Query opt;
        opt.type = QueryType::Optimize;
        opt.workload = wl::Workload::fft(1024);
        opt.f = f;
        queries.push_back(opt);

        Query energy;
        energy.type = QueryType::Energy;
        energy.workload = wl::Workload::mmm();
        energy.f = f;
        energy.node = 11.0;
        queries.push_back(energy);
    }
    Query projection;
    projection.type = QueryType::Projection;
    projection.workload = wl::Workload::blackScholes();
    projection.f = 0.9;
    queries.push_back(projection);

    Query pareto;
    pareto.type = QueryType::Pareto;
    pareto.workload = wl::Workload::mmm();
    pareto.f = 0.99;
    queries.push_back(pareto);
    return queries;
}

/** An answer's bytes, expanded. */
std::string
textOf(const Answer &answer)
{
    std::string text;
    answer.appendTo(text);
    return text;
}

/** Serialize a whole batch; bit-identical JSON == identical results. */
std::string
fingerprint(const std::vector<QueryEngine::ResultPtr> &results)
{
    std::ostringstream oss;
    for (const auto &result : results)
        oss << textOf(*result) << "\n";
    return oss.str();
}

EngineOptions
options(std::size_t threads, std::size_t cache_capacity)
{
    EngineOptions opts;
    opts.threads = threads;
    opts.cacheCapacity = cache_capacity;
    return opts;
}

TEST(QueryEngineTest, ResultsComeBackInInputOrder)
{
    QueryEngine engine(options(4, 64));
    std::vector<Query> queries = mixedQueries();
    auto results = engine.evaluateBatch(queries);
    ASSERT_EQ(results.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        ASSERT_NE(results[i], nullptr);
        EXPECT_EQ(textOf(*results[i]), evaluateQuery(queries[i]).toJson());
    }
}

TEST(QueryEngineTest, DuplicateQueriesEvaluateOnce)
{
    QueryEngine engine(options(4, 64));
    Query q; // default optimize query
    std::vector<Query> queries(16, q);
    auto results = engine.evaluateBatch(queries);
    ASSERT_EQ(results.size(), 16u);
    // Batch-local dedup collapses all 16 onto one future => one shared
    // result object, one evaluation, one cache miss.
    for (const auto &result : results)
        EXPECT_EQ(result, results[0]);
    CacheStats stats = engine.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(exported(engine, typed("hcm_svc_queries_total",
                                     QueryType::Optimize)),
              1u);
}

TEST(QueryEngineTest, SecondBatchIsServedFromTheCache)
{
    QueryEngine engine(options(2, 64));
    std::vector<Query> queries = mixedQueries();
    engine.evaluateBatch(queries);
    CacheStats cold = engine.cacheStats();
    EXPECT_EQ(cold.hits, 0u);
    EXPECT_EQ(cold.misses, queries.size());

    engine.evaluateBatch(queries);
    CacheStats warm = engine.cacheStats();
    EXPECT_EQ(warm.hits, queries.size());
    EXPECT_EQ(warm.misses, queries.size());
    EXPECT_DOUBLE_EQ(warm.hitRate(), 0.5);
}

TEST(QueryEngineTest, AnswersAreMemoizedAsBytes)
{
    QueryEngine engine(options(2, 64));
    Query q;
    q.type = QueryType::Projection;
    q.workload = wl::Workload::mmm();
    auto miss = engine.evaluate(q);
    ASSERT_TRUE(miss->ok());
    // Rendered once by the miss, packed for keeping.
    EXPECT_EQ(textOf(*miss), evaluateQuery(q).toJson());
    EXPECT_EQ(miss->size(), textOf(*miss).size());
    EXPECT_LT(miss->packedBytes() * 3, miss->size());
    // A hit hands back the cached object itself.
    auto hit = engine.evaluate(q);
    EXPECT_EQ(hit, miss);
    EXPECT_EQ(engine.cacheStats().hits, 1u);
}

// A memo entry is the answer's bytes and nothing else: the engine
// stores a bare Answer, not a QueryResult with its Query, rows and
// request id, and a repeat under another id gets the very same object.
// Answer has no virtual members, so its type is pinned at compile
// time: the pointer type, and a size that leaves no room for a Query.
TEST(QueryEngineTest, CachedAnswerIsBareBytes)
{
    static_assert(std::is_same_v<QueryEngine::ResultPtr,
                                 std::shared_ptr<const Answer>>);
    static_assert(sizeof(Answer) <=
                  sizeof(std::string) + sizeof(std::uint64_t));
    QueryEngine engine(options(1, 64));
    Query q;
    q.type = QueryType::Pareto;
    q.requestId = "rid-first";
    q.requestIdEcho = true;
    auto miss = engine.evaluate(q);
    ASSERT_TRUE(miss->ok());
    EXPECT_EQ(textOf(*miss).find("rid-first"), std::string::npos);

    auto hit = engine.evaluate(q);
    EXPECT_EQ(hit.get(), miss.get());
    q.requestId = "rid-second";
    auto repeat = engine.evaluate(q);
    EXPECT_EQ(repeat.get(), miss.get());
    CacheStats stats = engine.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(QueryEngineTest, EvaluateSingleMatchesBatch)
{
    QueryEngine engine(options(2, 64));
    Query q;
    q.type = QueryType::Pareto;
    q.workload = wl::Workload::fft(1024);
    auto single = engine.evaluate(q);
    auto batch = engine.evaluateBatch({q});
    ASSERT_NE(single, nullptr);
    EXPECT_EQ(textOf(*single), textOf(*batch[0]));
}

// Satellite: a batch of mixed queries returns bit-identical results
// for 1 vs 8 worker threads and with the cache enabled vs disabled.
TEST(QueryEngineTest, DeterministicAcrossThreadCounts)
{
    std::vector<Query> queries = mixedQueries();
    QueryEngine one(options(1, 256));
    QueryEngine eight(options(8, 256));
    EXPECT_EQ(fingerprint(one.evaluateBatch(queries)),
              fingerprint(eight.evaluateBatch(queries)));
}

TEST(QueryEngineTest, DeterministicWithCacheOnAndOff)
{
    std::vector<Query> queries = mixedQueries();
    // Repeat every query so the cached engine actually serves hits.
    std::vector<Query> doubled = queries;
    doubled.insert(doubled.end(), queries.begin(), queries.end());

    QueryEngine cached(options(4, 256));
    QueryEngine uncached(options(4, 0));
    EXPECT_FALSE(uncached.cacheEnabled());

    std::string with_cache = fingerprint(cached.evaluateBatch(doubled));
    std::string without = fingerprint(uncached.evaluateBatch(doubled));
    EXPECT_EQ(with_cache, without);

    // And a warm second pass (pure cache hits) changes nothing either.
    EXPECT_EQ(fingerprint(cached.evaluateBatch(doubled)), with_cache);
    EXPECT_GT(cached.cacheStats().hits, 0u);
}

TEST(QueryEngineTest, DisabledCacheStillDedupesWithinABatch)
{
    QueryEngine engine(options(4, 0));
    Query q;
    std::vector<Query> queries(8, q);
    auto results = engine.evaluateBatch(queries);
    for (const auto &result : results)
        EXPECT_EQ(result, results[0]);
    EXPECT_EQ(exported(engine, typed("hcm_svc_queries_total",
                                     QueryType::Optimize)),
              1u);
}

TEST(QueryEngineTest, ConcurrentBatchesShareInFlightWork)
{
    QueryEngine engine(options(4, 64));
    std::vector<Query> queries = mixedQueries();
    std::vector<std::string> prints(4);
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t)
        clients.emplace_back([&, t] {
            prints[t] = fingerprint(engine.evaluateBatch(queries));
        });
    for (std::thread &th : clients)
        th.join();
    for (int t = 1; t < 4; ++t)
        EXPECT_EQ(prints[t], prints[0]);
    // Dedup across batches: far fewer evaluations than 4x the batch.
    CacheStats stats = engine.cacheStats();
    EXPECT_EQ(stats.entries, queries.size());
}

TEST(QueryEngineTest, MetricsCoverEveryQueryType)
{
    QueryEngine engine(options(2, 64));
    engine.evaluateBatch(mixedQueries());
    for (QueryType t : allQueryTypes())
        EXPECT_GT(exported(engine, typed("hcm_svc_queries_total", t)), 0u)
            << queryTypeName(t);

    std::ostringstream oss;
    {
        JsonWriter json(oss);
        engine.writeMetricsJson(json);
    }
    auto doc = JsonValue::parse(oss.str());
    ASSERT_TRUE(doc);
    EXPECT_NE(doc->find("cache"), nullptr);
    EXPECT_DOUBLE_EQ(doc->find("totalQueries")->asNumber(),
                     static_cast<double>(mixedQueries().size()));
}

/** Captures log output and restores the sink and threshold on exit. */
class LogCapture
{
  public:
    LogCapture()
        : _previousSink(detail::setLogSink(&_stream)),
          _previousThreshold(logThreshold())
    {
    }

    ~LogCapture()
    {
        detail::setLogSink(_previousSink);
        setLogThreshold(_previousThreshold);
    }

    std::string text() const { return _stream.str(); }

  private:
    std::ostringstream _stream;
    std::ostream *_previousSink;
    LogLevel _previousThreshold;
};

TEST(QueryEngineTest, ServedHitReportsOneDurationToEverySink)
{
    // One hit, one pair of clock reads: the trace span, the profile
    // node, the flight record and the latency histogram all carry the
    // duration of the query's svc.query stage.
    Query q = mixedQueries().front();
    QueryEngine engine(options(2, 64));
    engine.evaluate(q); // warm the cache: the next call is a hit
    obs::Tracer &tracer = obs::Tracer::instance();
    obs::Profiler &profiler = obs::Profiler::instance();
    FlightRecorder &recorder = FlightRecorder::instance();
    tracer.clear();
    profiler.clear();
    recorder.configure(8);
    const std::string latency_sum =
        typed("hcm_svc_query_latency_ns_sum", q.type);
    std::uint64_t before = exported(engine, latency_sum);
    tracer.setEnabled(true);
    profiler.setEnabled(true);
    engine.evaluate(q);
    tracer.setEnabled(false);
    profiler.setEnabled(false);
    std::uint64_t hist_ns = exported(engine, latency_sum) - before;
    std::vector<RequestRecord> records = recorder.snapshot();
    recorder.configure(0);
    std::ostringstream trace_text, profile_text;
    tracer.writeChromeTrace(trace_text);
    profiler.writeJson(profile_text);
    tracer.clear();
    profiler.clear();

    ASSERT_GT(hist_ns, 0u);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].outcome, "hit");
    EXPECT_EQ(records[0].evalNs, hist_ns);

    auto trace = JsonValue::parse(trace_text.str());
    ASSERT_TRUE(trace);
    double dur_us = -1.0;
    for (const JsonValue &ev : trace->find("traceEvents")->items())
        if (ev.find("name")->asString() == "svc.query")
            dur_us = ev.find("dur")->asNumber();
    ASSERT_GE(dur_us, 0.0);
    EXPECT_EQ(std::llround(dur_us * 1e3), static_cast<long long>(hist_ns));

    auto profile = JsonValue::parse(profile_text.str());
    ASSERT_TRUE(profile);
    const JsonValue &root = profile->find("roots")->items()[0];
    ASSERT_EQ(root.find("name")->asString(), "svc.query");
    EXPECT_EQ(root.find("totalNs")->asNumber(),
              static_cast<double>(hist_ns));
}

TEST(QueryEngineTest, SlowQueriesAreLoggedAndCounted)
{
    LogCapture capture;
    setLogThreshold(LogLevel::Warn);
    EngineOptions opts = options(2, 64);
    opts.slowQueryNs = 1; // every evaluation is "slow"
    QueryEngine engine(opts);

    Query q;
    q.type = QueryType::Optimize;
    q.workload = wl::Workload::fft(1024);
    q.f = 0.9;
    engine.evaluate(q);

    EXPECT_EQ(exported(engine, "hcm_svc_slow_queries_total"), 1u);
    std::string log = capture.text();
    EXPECT_NE(log.find("slow query"), std::string::npos) << log;
    EXPECT_NE(log.find("type=optimize"), std::string::npos) << log;
    // The query's fields, not its key's raw bytes.
    EXPECT_NE(log.find(" workload=FFT-1024 f=0.9 scenario=baseline "
                       "node=22 device=*"),
              std::string::npos)
        << log;
    EXPECT_EQ(log.find("key="), std::string::npos) << log;
    EXPECT_NE(log.find("queueWaitMs="), std::string::npos) << log;
    EXPECT_NE(log.find("evalMs="), std::string::npos) << log;

    // A warm cache hit past the threshold counts too (queue wait 0).
    engine.evaluate(q);
    EXPECT_EQ(exported(engine, "hcm_svc_slow_queries_total"), 2u);
}

TEST(QueryEngineTest, FastQueriesAreNotFlaggedSlow)
{
    LogCapture capture;
    setLogThreshold(LogLevel::Warn);
    EngineOptions opts = options(2, 64);
    opts.slowQueryNs = 60'000'000'000ULL; // one minute: nothing is slow
    QueryEngine engine(opts);
    engine.evaluateBatch(mixedQueries());
    EXPECT_EQ(exported(engine, "hcm_svc_slow_queries_total"), 0u);
    EXPECT_EQ(capture.text().find("slow query"), std::string::npos);
}

TEST(QueryEngineTest, SlowQueryLogDisabledByDefault)
{
    LogCapture capture;
    setLogThreshold(LogLevel::Warn);
    QueryEngine engine(options(2, 64));
    engine.evaluateBatch(mixedQueries());
    EXPECT_EQ(exported(engine, "hcm_svc_slow_queries_total"), 0u);
    EXPECT_EQ(capture.text().find("slow query"), std::string::npos);
}

/** Lifecycle tests share the process-wide injector; disarm around each. */
class QueryEngineLifecycleTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        FaultInjector::instance().reset();
        // The engine warns on injected failures; keep test output quiet.
        _previousThreshold = logThreshold();
        setLogThreshold(LogLevel::Fatal);
    }

    void TearDown() override
    {
        FaultInjector::instance().reset();
        setLogThreshold(_previousThreshold);
    }

  private:
    LogLevel _previousThreshold = LogLevel::Inform;
};

// The seed bug this layer fixes: a throwing evaluation left the
// promise unset and the in-flight entry behind, hanging every waiter
// forever. Now it must resolve to a structured error, drain the
// in-flight map, and leave the key clean for a retry.
TEST_F(QueryEngineLifecycleTest, ThrowingEvaluationResolvesToError)
{
    ASSERT_TRUE(
        FaultInjector::instance().configure("eval:throw=model exploded"));
    QueryEngine engine(options(2, 64));
    Query q; // default optimize query
    auto result = engine.evaluate(q); // must return, not hang
    ASSERT_NE(result, nullptr);
    EXPECT_FALSE(result->ok());
    EXPECT_EQ(result->errorKind, QueryErrorKind::EvaluationFailed);
    EXPECT_EQ(engine.inflightCount(), 0u);
    EXPECT_EQ(exported(engine, "hcm_svc_errors_total"), 1u);
    // Rendered when made: exactly the error document a client gets.
    EXPECT_EQ(textOf(*result),
              makeQueryError(q, QueryErrorKind::EvaluationFailed,
                             "model exploded")
                  .toJson());
    EXPECT_NE(textOf(*result).find("\"error\":\"model exploded\""),
              std::string::npos);
    EXPECT_NE(textOf(*result).find("\"type\":\"evaluation_failed\""),
              std::string::npos);

    // Errors are never cached: disarmed, the same key evaluates fine.
    FaultInjector::instance().reset();
    auto retry = engine.evaluate(q);
    ASSERT_NE(retry, nullptr);
    EXPECT_TRUE(retry->ok());
    EXPECT_EQ(textOf(*retry), evaluateQuery(q).toJson());
    EXPECT_EQ(engine.cacheStats().hits, 0u); // both passes were misses
}

TEST_F(QueryEngineLifecycleTest, PiggybackedWaitersShareTheError)
{
    ASSERT_TRUE(FaultInjector::instance().configure("eval:throw"));
    QueryEngine engine(options(4, 64));
    Query q;
    std::vector<Query> queries(8, q);
    auto results = engine.evaluateBatch(queries);
    ASSERT_EQ(results.size(), 8u);
    for (const auto &result : results) {
        EXPECT_EQ(result, results[0]); // one shared error object
        EXPECT_EQ(result->errorKind, QueryErrorKind::EvaluationFailed);
    }
    // Dedup held: the fault site saw exactly one evaluation attempt.
    EXPECT_EQ(FaultInjector::instance().callCount("eval"), 1u);
    EXPECT_EQ(engine.inflightCount(), 0u);
    EXPECT_EQ(engine.cacheStats().entries, 0u);
}

TEST_F(QueryEngineLifecycleTest, DeadlineAfterEvaluationStillCaches)
{
    // First evaluation sleeps 60ms against a 10ms deadline: the waiter
    // gets deadline_exceeded, but the computed value stays cached.
    ASSERT_TRUE(
        FaultInjector::instance().configure("eval:delay=60:nth=1"));
    QueryEngine engine(options(2, 64));
    Query q;
    q.deadlineNs = 10'000'000; // 10ms
    auto late = engine.evaluate(q);
    ASSERT_NE(late, nullptr);
    EXPECT_EQ(late->errorKind, QueryErrorKind::DeadlineExceeded);
    EXPECT_NE(textOf(*late).find(
                  "\"error\":\"deadline exceeded during evaluation\""),
              std::string::npos);
    EXPECT_EQ(exported(engine, "hcm_svc_deadline_exceeded_total"),
              1u);
    EXPECT_NE(textOf(*late).find("\"type\":\"deadline_exceeded\""),
              std::string::npos);

    Query retry; // same key: the deadline is not part of identity
    EXPECT_EQ(retry.canonicalKey(), q.canonicalKey());
    auto hit = engine.evaluate(retry);
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(hit->ok());
    EXPECT_EQ(engine.cacheStats().hits, 1u);
}

TEST_F(QueryEngineLifecycleTest, DeadlineCheckedAtDequeue)
{
    // One worker, first task sleeps 100ms: the second query's 1ms
    // deadline has long lapsed when it is dequeued, so the worker
    // sheds it without evaluating.
    ASSERT_TRUE(
        FaultInjector::instance().configure("eval:delay=100:nth=1"));
    QueryEngine engine(options(1, 64));
    Query slow;
    slow.f = 0.5;
    Query doomed;
    doomed.f = 0.9;
    doomed.deadlineNs = 1'000'000; // 1ms
    auto results = engine.evaluateBatch({slow, doomed});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0]->ok());
    EXPECT_EQ(results[1]->errorKind, QueryErrorKind::DeadlineExceeded);
    EXPECT_NE(textOf(*results[1]).find(
                  "\"error\":\"deadline exceeded while queued\""),
              std::string::npos);
    // The doomed query never reached evaluation.
    EXPECT_EQ(FaultInjector::instance().callCount("eval"), 1u);
    EXPECT_EQ(exported(engine, "hcm_svc_deadline_exceeded_total"),
              1u);
}

TEST_F(QueryEngineLifecycleTest, PerQueryDeadlineOverridesEngineDefault)
{
    ASSERT_TRUE(FaultInjector::instance().configure("eval:delay=60"));
    EngineOptions opts = options(2, 64);
    opts.deadlineNs = 5'000'000; // 5ms default: every query times out
    QueryEngine engine(opts);

    Query defaulted;
    defaulted.f = 0.5;
    auto timed_out = engine.evaluate(defaulted);
    EXPECT_EQ(timed_out->errorKind, QueryErrorKind::DeadlineExceeded);

    Query patient;
    patient.f = 0.9;
    patient.deadlineNs = 10'000'000'000; // 10s: own deadline wins
    auto ok = engine.evaluate(patient);
    EXPECT_TRUE(ok->ok());
}

TEST_F(QueryEngineLifecycleTest, SaturatedQueueShedsWithRetryHint)
{
    // One worker (held busy 250ms per task) and a one-slot queue with
    // zero admission wait: the third distinct query must be shed with
    // an overloaded error instead of blocking the caller.
    ASSERT_TRUE(FaultInjector::instance().configure("eval:delay=250"));
    EngineOptions opts = options(1, 64);
    opts.queueCapacity = 1;
    opts.admissionWaitNs = 0;
    QueryEngine engine(opts);

    Query q1, q2, q3;
    q1.f = 0.5;
    q2.f = 0.9;
    q3.f = 0.99;
    QueryEngine::ResultPtr r1, r2;
    std::thread c1([&] { r1 = engine.evaluate(q1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::thread c2([&] { r2 = engine.evaluate(q2); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Worker busy on q1, queue slot held by q2: q3 is rejected now.
    auto r3 = engine.evaluate(q3);
    ASSERT_NE(r3, nullptr);
    EXPECT_EQ(r3->errorKind, QueryErrorKind::Overloaded);
    auto doc = JsonValue::parse(textOf(*r3));
    ASSERT_TRUE(doc) << textOf(*r3);
    EXPECT_EQ(doc->find("error")->asString(), "worker queue is full");
    EXPECT_EQ(doc->find("type")->asString(), "overloaded");
    ASSERT_NE(doc->find("retryAfterMs"), nullptr) << textOf(*r3);
    EXPECT_GE(doc->find("retryAfterMs")->asNumber(), 1.0);
    EXPECT_GE(exported(engine, "hcm_svc_rejected_total"), 1u);

    c1.join();
    c2.join();
    EXPECT_TRUE(r1->ok());
    EXPECT_TRUE(r2->ok());
    EXPECT_EQ(engine.inflightCount(), 0u);
}

TEST(QueryEngineTest, DifferingRequestIdsShareOneCacheEntry)
{
    // The id is trace context, not computation identity: a repeat of
    // the same question under a fresh id must hit the cache.
    QueryEngine engine(options(2, 64));
    Query q;
    q.requestId = "rid-a";
    engine.evaluate(q);
    q.requestId = "rid-b";
    engine.evaluate(q);
    CacheStats stats = engine.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(QueryEngineTest, OutOfRegistryScenariosStayDistinctCacheEntries)
{
    // A name outside the registry is appended to the key in full, so
    // these keys spill past the cache's inline key storage and share
    // their first 11 + 16 bytes; only the names' last byte differs.
    Query a;
    a.scenario = "scenario-outside-the-registry-A";
    Query b = a;
    b.scenario = "scenario-outside-the-registry-B";
    std::string key_a = a.canonicalKey();
    std::string key_b = b.canonicalKey();
    ASSERT_EQ(key_a.substr(0, 27), key_b.substr(0, 27));
    ASSERT_NE(key_a, key_b);

    // Evaluating such a query fails (see the next test), so each
    // answer is the error a failed evaluation packs, which echoes its
    // query's scenario.
    auto failed = [](const Query &q) {
        return renderAnswer(makeQueryError(
            q, QueryErrorKind::EvaluationFailed, "unknown scenario"));
    };
    QueryEngine::ResultPtr answer_a = failed(a);
    QueryEngine::ResultPtr answer_b = failed(b);
    ASSERT_NE(textOf(*answer_a), textOf(*answer_b));

    QueryCache cache(64, 1);
    cache.put(key_a, answer_a);
    cache.put(key_b, answer_b);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.get(key_a), answer_a);
    EXPECT_EQ(cache.get(key_b), answer_b);
    cache.put(key_b, failed(a)); // a refresh of b leaves a's entry alone
    EXPECT_EQ(cache.get(key_a), answer_a);
    EXPECT_EQ(cache.stats().entries, 2u);
}

// The request parser turns names outside the registries away, but an
// engine's other callers can build such queries: each one answers
// evaluation_failed, counts as an error and is never cached, instead of
// aborting the process.
TEST(QueryEngineTest, OutOfRegistryQueriesFailEvaluationUncached)
{
    QueryEngine engine(options(2, 64));
    Query scenario;
    scenario.scenario = "scenario-outside-the-registry";
    Query projection = scenario;
    projection.type = QueryType::Projection;
    Query node;
    node.node = 23.0;
    for (const Query &q : {scenario, projection, node}) {
        auto result = engine.evaluate(q);
        ASSERT_NE(result, nullptr);
        EXPECT_EQ(result->errorKind, QueryErrorKind::EvaluationFailed);
        EXPECT_NE(textOf(*result).find("\"type\":\"evaluation_failed\""),
                  std::string::npos)
            << textOf(*result);
    }
    EXPECT_EQ(engine.cacheStats().entries, 0u);
    EXPECT_EQ(engine.cacheStats().misses, 3u);
}

TEST(QueryEngineTest, FaultedEvaluationEchoesAClientRequestId)
{
    FaultInjector::instance().reset();
    ASSERT_TRUE(FaultInjector::instance().configure(
        "eval:throw=injected fault:every=1"));
    QueryEngine engine(options(2, 64));
    Query q;
    q.requestId = "rid-fault";
    q.requestIdEcho = true;
    auto result = engine.evaluate(q);
    FaultInjector::instance().reset();
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->errorKind, QueryErrorKind::EvaluationFailed);
    EXPECT_NE(textOf(*result).find("\"requestId\":\"rid-fault\""),
              std::string::npos);
}

TEST(QueryEngineTest, DeadlineErrorEchoesAClientRequestId)
{
    FaultInjector::instance().reset();
    ASSERT_TRUE(
        FaultInjector::instance().configure("dequeue:delay=30"));
    EngineOptions opts = options(1, 64);
    opts.deadlineNs = 1000000; // 1ms, hopeless against a 30ms stall
    QueryEngine engine(opts);
    Query q;
    q.requestId = "rid-late";
    q.requestIdEcho = true;
    auto result = engine.evaluate(q);
    FaultInjector::instance().reset();
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->errorKind, QueryErrorKind::DeadlineExceeded);
    EXPECT_NE(textOf(*result).find("\"requestId\":\"rid-late\""),
              std::string::npos);
}

} // namespace
} // namespace svc
} // namespace hcm
