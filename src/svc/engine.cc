#include "engine.hh"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <utility>

#include "obs/trace.hh"
#include "svc/backpressure.hh"
#include "svc/fault.hh"
#include "svc/flight_recorder.hh"
#include "util/logging.hh"

namespace hcm {
namespace svc {
namespace {

/**
 * Runs its function at scope exit, exceptions included — the miss
 * task's "always resolve the promise, always erase the in-flight
 * entry" guarantee hangs off one of these.
 */
template <typename F>
class ScopeExit
{
  public:
    explicit ScopeExit(F fn) : _fn(std::move(fn)) {}
    ~ScopeExit() { _fn(); }

    ScopeExit(const ScopeExit &) = delete;
    ScopeExit &operator=(const ScopeExit &) = delete;

  private:
    F _fn;
};

/** The engine's instrument names; the per-type ones carry {type}. */
constexpr const char *kQueries = "hcm_svc_queries_total";
constexpr const char *kCacheHits = "hcm_svc_query_cache_hits_total";
constexpr const char *kLatency = "hcm_svc_query_latency_ns";
constexpr const char *kSlowQueries = "hcm_svc_slow_queries_total";
constexpr const char *kErrors = "hcm_svc_errors_total";
constexpr const char *kDeadlineExceeded = "hcm_svc_deadline_exceeded_total";
constexpr const char *kRejected = "hcm_svc_rejected_total";

obs::Labels
typeLabel(QueryType type)
{
    return {{"type", queryTypeName(type)}};
}

std::size_t
typeIndex(QueryType type)
{
    return static_cast<std::size_t>(type);
}

/** The log/record spelling of a possibly-absent request id. */
std::string
ridOrDash(const std::string &rid)
{
    return rid.empty() ? "-" : rid;
}

/**
 * A query's identity as log fields, in place of its key (whose bytes
 * may hold NULs): type, workload, f (shortest round-trip digits),
 * scenario, node (not for Projection) and device.
 */
struct QueryFields
{
    const Query &q;
};

std::ostream &
operator<<(std::ostream &os, const QueryFields &fields)
{
    const Query &q = fields.q;
    char f[32];
    char *f_end = std::to_chars(f, f + sizeof f, q.f).ptr;
    os << logField("type", queryTypeName(q.type))
       << logField("workload", q.workload.name())
       << logField("f", std::string_view(f, f_end - f))
       << logField("scenario", q.scenario);
    if (q.type != QueryType::Projection)
        os << logField("node", q.node);
    return os << logField("device",
                          q.device ? dev::deviceName(*q.device) : "*");
}

/**
 * An engine error, packed when it is made. Never cached: its bytes
 * belong to the request (they may echo its requestId).
 */
QueryEngine::ResultPtr
errorAnswer(const Query &q, QueryErrorKind kind, std::string why,
            std::uint64_t retry_after_ms = 0)
{
    return renderAnswer(
        makeQueryError(q, kind, std::move(why), retry_after_ms));
}

} // namespace

EngineMetrics::EngineMetrics()
{
    // One pass per metric name keeps each name's series contiguous in
    // the registry, the grouping the Prometheus exporter emits; the
    // outcome counters follow the per-type families.
    for (QueryType type : allQueryTypes())
        queries[typeIndex(type)] =
            &registry.counter(kQueries, typeLabel(type));
    for (QueryType type : allQueryTypes())
        cacheHits[typeIndex(type)] =
            &registry.counter(kCacheHits, typeLabel(type));
    for (QueryType type : allQueryTypes())
        latency[typeIndex(type)] =
            &registry.histogram(kLatency, typeLabel(type));
    slowQueries = &registry.counter(kSlowQueries);
    errors = &registry.counter(kErrors);
    deadlineExceeded = &registry.counter(kDeadlineExceeded);
    rejected = &registry.counter(kRejected);
}

void
EngineMetrics::recordServed(QueryType type, std::uint64_t nanos,
                            bool cacheHit)
{
    std::size_t i = typeIndex(type);
    queries[i]->add(1);
    if (cacheHit)
        cacheHits[i]->add(1);
    latency[i]->record(nanos);
}

void
EngineMetrics::writeJson(JsonWriter &json, const CacheStats &cache) const
{
    // Read every instrument first and format after, so the total is
    // the sum of the per-type counts even while queries land.
    std::array<std::uint64_t, 4> served{};
    std::array<std::uint64_t, 4> hits{};
    std::array<obs::Histogram, 4> latencies;
    std::uint64_t total = 0;
    for (QueryType type : allQueryTypes()) {
        std::size_t i = typeIndex(type);
        served[i] = queries[i]->value();
        hits[i] = cacheHits[i]->value();
        latencies[i] = *latency[i];
        total += served[i];
    }

    json.beginObject();
    json.kv("totalQueries", total);
    json.kv("slowQueries", slowQueries->value());
    json.kv("errors", errors->value());
    json.kv("deadlineExceeded", deadlineExceeded->value());
    json.kv("rejected", rejected->value());
    json.key("queryTypes").beginObject();
    for (QueryType type : allQueryTypes()) {
        std::size_t i = typeIndex(type);
        json.key(queryTypeName(type)).beginObject();
        json.kv("count", served[i]);
        json.kv("cacheHits", hits[i]);
        json.key("latencyMs").beginObject();
        json.kv("mean", latencies[i].mean() / 1e6);
        json.kv("p50", latencies[i].percentile(50.0) / 1e6);
        json.kv("p95", latencies[i].percentile(95.0) / 1e6);
        json.kv("p99", latencies[i].percentile(99.0) / 1e6);
        json.endObject();
        json.endObject();
    }
    json.endObject();
    json.key("cache");
    cache.writeJson(json);
    json.endObject();
}

void
EngineMetrics::writePrometheus(std::ostream &out,
                               const CacheStats &cache) const
{
    registry.writePrometheus(out);
    cache.writePrometheus(out);
}

QueryEngine::QueryEngine(EngineOptions opts)
    : _opts(opts),
      _cache(opts.cacheCapacity > 0
                 ? std::make_unique<QueryCache>(opts.cacheCapacity)
                 : nullptr),
      _pool(opts.threads, opts.queueCapacity, opts.shardLabel)
{
}

void
QueryEngine::noteSlowQuery(const Query &q, std::uint64_t wait_ns,
                           std::uint64_t eval_ns)
{
    _metrics.slowQueries->add(1);
    hcm_warn("slow query", QueryFields{q},
             logField("requestId", ridOrDash(q.requestId)),
             logField("queueWaitMs", wait_ns / 1e6),
             logField("evalMs", eval_ns / 1e6));
}

std::uint64_t
QueryEngine::effectiveDeadlineNs(const Query &q) const
{
    return q.deadlineNs > 0 ? q.deadlineNs : _opts.deadlineNs;
}

std::uint64_t
QueryEngine::retryAfterMsHint() const
{
    // Pending depth x mean latency / workers estimates when the queue
    // will have drained; the shared backoffHintMs() heuristic does the
    // clamping (deliberately coarse, [1ms, 10s]).
    std::uint64_t sum_ns = 0;
    std::uint64_t count = 0;
    for (const obs::Histogram *latency : _metrics.latency) {
        sum_ns += latency->sum();
        count += latency->count();
    }
    double per_task_ms =
        count > 0 ? static_cast<double>(sum_ns) /
                        static_cast<double>(count) / 1e6
                  : kDefaultPerTaskMs;
    return backoffHintMs(per_task_ms, _pool.pendingTasks() + 1,
                         _pool.threadCount());
}

std::size_t
QueryEngine::inflightCount() const
{
    std::lock_guard<std::mutex> lock(_inflightMu);
    return _inflight.size();
}

QueryEngine::ResultPtr
QueryEngine::Pending::get() const
{
    return ready ? ready : future.get();
}

void
QueryEngine::runMiss(const Query &q, const std::string &key,
                     std::promise<ResultPtr> &prom, std::uint64_t submit_ns,
                     std::uint64_t deadline_at)
{
    // The queue wait straddles threads: it opened at the hand-off on
    // the submitting thread and closes here, at dequeue.
    obs::Span wait("svc.queue_wait", "svc", obs::Since{submit_ns});
    wait.arg("type", queryTypeName(q.type));
    if (!q.requestId.empty())
        wait.arg("rid", q.requestId);
    const std::uint64_t wait_ns = wait.end();
    const std::uint64_t dequeue_ns = submit_ns + wait_ns;
    std::uint64_t eval_ns = 0;
    ResultPtr result;
    bool hit = false;
    // The seed bug this layer kills: nothing below may leave the
    // promise unset or the in-flight entry behind, whatever
    // evaluation does — so both are discharged by a scope guard.
    ScopeExit finish([&] {
        if (!result)
            result = errorAnswer(
                q, QueryErrorKind::EvaluationFailed,
                "internal error: worker produced no result");
        recordFlight(q,
                     result->ok()
                         ? (hit ? "hit" : "ok")
                         : queryErrorKindName(result->errorKind)
                               .c_str(),
                     wait_ns, eval_ns);
        // Erase before resolving: a waiter that has seen the
        // result must also see the key gone, so its retry starts
        // a fresh evaluation instead of rendezvousing with a
        // finished one.
        {
            std::lock_guard<std::mutex> inner(_inflightMu);
            _inflight.erase(key);
        }
        prom.set_value(result);
    });
    try {
        FaultInjector::instance().maybeInject("dequeue");
        if (deadline_at > 0 && dequeue_ns > deadline_at) {
            // Abandoned in the queue: don't burn the worker on it.
            _metrics.deadlineExceeded->add(1);
            result = errorAnswer(q, QueryErrorKind::DeadlineExceeded,
                                 "deadline exceeded while queued");
            return;
        }
        if (_cache) {
            // Double-check: a concurrent batch may have filled it
            // between our miss and this task running. Uncounted —
            // the acquire-time lookup already charged this query.
            result = _cache->peek(key);
            hit = result != nullptr;
        }
        if (!result) {
            // Evaluation starts where the wait ended, so the two
            // stages tile the task's time from hand-off to answer.
            obs::Span eval("svc.eval", "svc", obs::Since{dequeue_ns});
            eval.arg("type", queryTypeName(q.type));
            if (!q.requestId.empty())
                eval.arg("rid", q.requestId);
            try {
                FaultInjector::instance().maybeInject("eval");
                // Pack once, straight from the rows, and keep only the
                // bytes: every answer for this key, this one included,
                // expands them.
                result = renderAnswer(evaluateQuery(q));
            } catch (...) {
                eval.arg("outcome", "error");
                eval_ns = eval.end();
                throw;
            }
            eval_ns = eval.end();
            if (_cache)
                _cache->put(key, result);
        }
        if (deadline_at > 0 && dequeue_ns + eval_ns > deadline_at) {
            // Evaluated, but past its deadline: the cache keeps
            // the value for a retry; this waiter gets the error.
            _metrics.deadlineExceeded->add(1);
            result = errorAnswer(q, QueryErrorKind::DeadlineExceeded,
                                 "deadline exceeded during evaluation");
            return;
        }
    } catch (const std::exception &e) {
        _metrics.errors->add(1);
        hcm_warn("query evaluation failed", QueryFields{q},
                 logField("requestId", ridOrDash(q.requestId)),
                 logField("error", e.what()));
        result = errorAnswer(q, QueryErrorKind::EvaluationFailed, e.what());
        return;
    } catch (...) {
        _metrics.errors->add(1);
        hcm_warn("query evaluation failed", QueryFields{q},
                 logField("requestId", ridOrDash(q.requestId)),
                 logField("error", "non-standard exception"));
        result = errorAnswer(
            q, QueryErrorKind::EvaluationFailed,
            "evaluation failed with a non-standard exception");
        return;
    }
    // A double-check hit evaluated nothing: its latency is the wait
    // before the answer was known, as an acquire-time hit's is.
    _metrics.recordServed(q.type, hit ? wait_ns : eval_ns, hit);
    if (_opts.slowQueryNs > 0 &&
        wait_ns + eval_ns > _opts.slowQueryNs)
        noteSlowQuery(q, wait_ns, eval_ns);
}

QueryEngine::Pending
QueryEngine::acquire(const Query &q, const std::string &key, bool run_here)
{
    // One timed stage per query on the submitting thread. It opens at
    // the query's admission (the deadline's origin), and on a hit its
    // duration is what every sink records. The miss task adds
    // queue-wait and eval stages (nested here when it runs inline).
    obs::Span query("svc.query", "svc", true);
    query.arg("type", queryTypeName(q.type));
    if (!q.requestId.empty()) {
        query.arg("rid", q.requestId);
        // Finish the flow the ingress started: Perfetto draws the
        // arrow from the front door's dispatch slice into this shard's
        // svc.query slice once the traces are merged.
        if (query.active())
            obs::Tracer::instance().recordFlow("req", "net", 'f',
                                               q.requestId);
    }
    // Fast path: a warm hit never touches the pool.
    if (_cache) {
        obs::Span lookup("svc.cache.lookup", "svc");
        if (ResultPtr hit = _cache->get(key)) {
            lookup.end();
            query.arg("outcome", "hit");
            std::uint64_t hit_ns = query.end();
            _metrics.recordServed(q.type, hit_ns, true);
            recordFlight(q, "hit", 0, hit_ns);
            if (_opts.slowQueryNs > 0 && hit_ns > _opts.slowQueryNs)
                noteSlowQuery(q, 0, hit_ns);
            return {std::move(hit), {}};
        }
    }

    std::shared_ptr<std::promise<ResultPtr>> prom;
    std::shared_future<ResultPtr> fut;
    {
        std::lock_guard<std::mutex> lock(_inflightMu);
        auto it = _inflight.find(key);
        if (it != _inflight.end()) {
            query.arg("outcome", "inflight");
            return {nullptr, it->second}; // someone is computing it
        }
        prom = std::make_shared<std::promise<ResultPtr>>();
        fut = prom->get_future().share();
        _inflight.emplace(key, fut);
    }
    // Run or submit with _inflightMu released: a full queue waits
    // here, and finishing tasks need that mutex to erase their
    // entries. Later acquirers of this key rendezvous on the map entry
    // made above and wait on the future, not the queue.
    std::uint64_t deadline_ns = effectiveDeadlineNs(q);
    std::uint64_t deadline_at =
        deadline_ns > 0 ? query.startNs() + deadline_ns : 0;
    // A bare timer marks the hand-off: its opening read is where the
    // queue wait starts, on whichever thread the task then runs.
    std::uint64_t submit_ns = obs::Span(nullptr, nullptr, true).startNs();
    if (run_here && _pool.tryRunHere([&] {
            runMiss(q, key, *prom, submit_ns, deadline_at);
        })) {
        // A free worker slot and an empty queue: handing the task to a
        // worker would only add a wake-up, so it ran here, in full.
        query.arg("outcome", "miss");
        return {fut.get(), {}};
    }
    auto task = [this, q, key, prom, submit_ns, deadline_at] {
        runMiss(q, key, *prom, submit_ns, deadline_at);
    };
    if (!_pool.trySubmit(std::move(task), _opts.admissionWaitNs)) {
        // Admission shed the task (queue saturated for the whole
        // bounded wait, or the pool is stopping). Resolve the promise
        // ourselves — piggybacked waiters get the same error — and
        // clear the in-flight entry so a retry starts fresh.
        query.arg("outcome", "rejected");
        _metrics.rejected->add(1);
        recordFlight(q, "overloaded", 0, 0);
        bool stopping = _pool.stopping();
        ResultPtr error = errorAnswer(
            q, QueryErrorKind::Overloaded,
            stopping ? "engine is shutting down" : "worker queue is full",
            stopping ? 0 : retryAfterMsHint());
        {
            std::lock_guard<std::mutex> lock(_inflightMu);
            _inflight.erase(key);
        }
        prom->set_value(error);
        return {std::move(error), {}};
    }
    query.arg("outcome", "miss");
    return {nullptr, std::move(fut)};
}

QueryEngine::ResultPtr
QueryEngine::evaluate(const Query &q)
{
    return evaluate(q, q.canonicalKey());
}

QueryEngine::ResultPtr
QueryEngine::evaluate(const Query &q, const std::string &key)
{
    return acquire(q, key, true).get();
}

std::vector<QueryEngine::ResultPtr>
QueryEngine::evaluateBatch(const std::vector<Query> &queries)
{
    obs::Span batch("svc.batch", "svc");
    batch.arg("queries", queries.size());
    std::vector<Pending> pending;
    pending.reserve(queries.size());
    // Batch-local dedup keeps repeated queries down to one future even
    // before the engine-wide in-flight map gets involved.
    std::unordered_map<std::string, std::size_t> first_use;
    for (const Query &q : queries) {
        std::string key = q.canonicalKey();
        auto [it, fresh] = first_use.emplace(key, pending.size());
        if (fresh)
            pending.push_back(acquire(q, key, false));
        else
            pending.push_back(pending[it->second]);
    }
    std::vector<ResultPtr> results;
    results.reserve(pending.size());
    for (const Pending &p : pending)
        results.push_back(p.get());
    return results;
}

CacheStats
QueryEngine::cacheStats() const
{
    return _cache ? _cache->stats() : CacheStats{};
}

void
QueryEngine::writeMetricsJson(JsonWriter &json) const
{
    _metrics.writeJson(json, cacheStats());
}

void
QueryEngine::writeMetricsProm(std::ostream &out) const
{
    _metrics.writePrometheus(out, cacheStats());
}

} // namespace svc
} // namespace hcm
