/**
 * @file
 * The query engine: fans batches of queries across the worker pool,
 * memoizes results in the sharded LRU cache, deduplicates identical
 * in-flight queries (one evaluation feeds every waiter), and records
 * per-query-type counts and latencies in its own obs::Registry.
 * Results come back in input order, and because evaluateQuery() is
 * pure, a batch returns bit-identical answers regardless of thread
 * count or cache state.
 *
 * The engine's product is an Answer: the bytes a client receives. A
 * miss packs its QueryResult once, straight from the rows, and keeps
 * only those bytes, in the cache and for every waiter.
 *
 * Request lifecycle guarantees: every future the engine hands out
 * resolves. A throwing evaluation resolves to an evaluation_failed
 * Answer (the in-flight entry is erased by a scope guard, so the
 * key re-evaluates cleanly next time); a missed deadline resolves to
 * deadline_exceeded; a saturated or stopping pool resolves to
 * overloaded with a retryAfterMs hint. Error results are never cached.
 */

#ifndef HCM_SVC_ENGINE_HH
#define HCM_SVC_ENGINE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hh"
#include "svc/cache.hh"
#include "svc/query.hh"
#include "svc/thread_pool.hh"

namespace hcm {
namespace svc {

/** Engine sizing knobs. */
struct EngineOptions
{
    /** Worker threads; 0 selects the hardware concurrency. */
    std::size_t threads = 0;
    /** Bound on queued-but-unstarted tasks (submit blocks past it). */
    std::size_t queueCapacity = ThreadPool::kDefaultQueueCapacity;
    /** Memoization entries across the cache's shards (QueryCache's
     *  default count); 0 disables the cache. */
    std::size_t cacheCapacity = 4096;
    /**
     * Queries whose total latency (queue wait + evaluation; cache hits
     * use the lookup time) exceeds this emit one structured warn line
     * and count in hcm_svc_slow_queries_total. 0 disables the log.
     */
    std::uint64_t slowQueryNs = 0;
    /**
     * Default per-query deadline, measured from admission; a query's
     * own Query::deadlineNs wins when set. Checked when a worker
     * dequeues the task and again after evaluation; a miss resolves
     * the future to a deadline_exceeded error instead of burning the
     * worker on an abandoned request. 0 = no default deadline.
     */
    std::uint64_t deadlineNs = 0;
    /**
     * Admission control: how long a submission may wait at a full
     * worker queue before the engine sheds it with an `overloaded`
     * error (carrying a retryAfterMs hint) instead of blocking the
     * caller indefinitely. 0 rejects immediately when full.
     */
    std::uint64_t admissionWaitNs = 5'000'000'000;
    /**
     * Net-shard identity: when non-empty, this engine's thread-pool
     * instruments carry a {shard=<label>} label so per-shard
     * saturation is distinguishable when several engine instances
     * share one process/registry. Empty keeps the unlabeled series.
     */
    std::string shardLabel;
};

/**
 * The engine's instruments: a private obs::Registry and, resolved once
 * at construction, the instruments registered in it in export order.
 * Per query type (indexed by QueryType): served queries, cache hits
 * and latency in ns. Failed queries feed only the disjoint outcome
 * counters: threw (errors), missed the deadline, or shed at admission.
 */
struct EngineMetrics
{
    EngineMetrics();

    EngineMetrics(const EngineMetrics &) = delete;
    EngineMetrics &operator=(const EngineMetrics &) = delete;

    /** Count one served query of @p type that took @p nanos. */
    void recordServed(QueryType type, std::uint64_t nanos, bool cacheHit);

    /**
     * The engine metrics document, with the cache counters @p cache:
     * {"totalQueries": N,
     *  "slowQueries": N,
     *  "errors": N, "deadlineExceeded": N, "rejected": N,
     *  "queryTypes": {"optimize": {"count": ..., "cacheHits": ...,
     *                 "latencyMs": {"mean": ..., "p50": ..., "p95": ...,
     *                               "p99": ...}}, ...},
     *  "cache": {...}}
     */
    void writeJson(JsonWriter &json, const CacheStats &cache) const;

    /**
     * The same metrics in Prometheus text format: the registry's
     * series (hcm_svc_queries_total{type}, ..._query_cache_hits_total,
     * ..._query_latency_ns, then the slow, error, deadline and
     * rejected counters), then @p cache's hcm_svc_cache_* series.
     */
    void writePrometheus(std::ostream &out, const CacheStats &cache) const;

    obs::Registry registry;
    std::array<obs::Counter *, 4> queries{};
    std::array<obs::Counter *, 4> cacheHits{};
    std::array<obs::Histogram *, 4> latency{};
    obs::Counter *slowQueries = nullptr;
    obs::Counter *errors = nullptr;
    obs::Counter *deadlineExceeded = nullptr;
    obs::Counter *rejected = nullptr;
};

/** Thread-pooled, memoizing evaluator of model queries. */
class QueryEngine
{
  public:
    using ResultPtr = std::shared_ptr<const Answer>;

    explicit QueryEngine(EngineOptions opts = {});

    QueryEngine(const QueryEngine &) = delete;
    QueryEngine &operator=(const QueryEngine &) = delete;

    /**
     * Evaluate one query through the cache + pool; blocks for it. A
     * miss runs on the calling thread when the pool has a free slot
     * and an empty queue (ThreadPool::tryRunHere()), and is queued for
     * a worker otherwise — same admission, deadlines and dedup either
     * way.
     */
    ResultPtr evaluate(const Query &q);

    /** evaluate() with @p key, which must be q.canonicalKey(). */
    ResultPtr evaluate(const Query &q, const std::string &key);

    /**
     * Evaluate @p queries concurrently and return results in input
     * order. Duplicate queries within the batch (and across concurrent
     * batches) are evaluated once and shared. Misses always go to the
     * workers: running them on the caller would serialize the batch.
     */
    std::vector<ResultPtr> evaluateBatch(const std::vector<Query> &queries);

    std::size_t threadCount() const { return _pool.threadCount(); }
    bool cacheEnabled() const { return _cache != nullptr; }

    /** Keys currently being evaluated (0 once all work resolved). */
    std::size_t inflightCount() const;

    /** Zeroed stats when the cache is disabled. */
    CacheStats cacheStats() const;

    /** The engine's metrics document (EngineMetrics::writeJson()). */
    void writeMetricsJson(JsonWriter &json) const;

    /** The same metrics as Prometheus text
     *  (EngineMetrics::writePrometheus()). */
    void writeMetricsProm(std::ostream &out) const;

  private:
    /**
     * One acquired query: @c ready when the answer was known at once
     * (a cache hit, or admission shed it), else the future of the
     * evaluation it started or joined.
     */
    struct Pending
    {
        ResultPtr ready;
        std::shared_future<ResultPtr> future;

        ResultPtr get() const;
    };

    /**
     * Look @p key up, join its in-flight evaluation, or start one —
     * on this thread when @p run_here and the pool allows it.
     */
    Pending acquire(const Query &q, const std::string &key,
                    bool run_here);

    /**
     * The miss task: evaluate @p q (deadline and fault checks, pack,
     * cache insert) and always resolve @p prom and erase the in-flight
     * entry, on whichever thread runs it. @p submit_ns is the
     * hand-off time and @p deadline_at the absolute deadline (0 =
     * none), both on the tracing clock.
     */
    void runMiss(const Query &q, const std::string &key,
                 std::promise<ResultPtr> &prom, std::uint64_t submit_ns,
                 std::uint64_t deadline_at);

    /** Count + log one query past the slow threshold. */
    void noteSlowQuery(const Query &q, std::uint64_t wait_ns,
                       std::uint64_t eval_ns);

    /** The query's own deadline, else the engine default (0 = none). */
    std::uint64_t effectiveDeadlineNs(const Query &q) const;

    /** Coarse client backoff hint from queue depth and mean latency. */
    std::uint64_t retryAfterMsHint() const;

    EngineOptions _opts;
    std::unique_ptr<QueryCache> _cache;
    EngineMetrics _metrics;
    mutable std::mutex _inflightMu;
    std::unordered_map<std::string, std::shared_future<ResultPtr>>
        _inflight;
    ThreadPool _pool; ///< last member: workers die before state they use
};

} // namespace svc
} // namespace hcm

#endif // HCM_SVC_ENGINE_HH
