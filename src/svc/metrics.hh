/**
 * @file
 * Observability for the query engine: per-query-type counters and
 * log-scale latency histograms with percentile estimation (p50/p95/p99).
 * The instruments live in a private obs::Registry (generic counters +
 * histograms), which buys the Prometheus text exporter for free while
 * the JSON document keeps its original shape byte-for-byte. Histograms
 * use power-of-two nanosecond buckets — constant memory, a short lock
 * per sample — which resolves percentiles to within a factor of two,
 * plenty for spotting contention and cache effects.
 */

#ifndef HCM_SVC_METRICS_HH
#define HCM_SVC_METRICS_HH

#include <array>
#include <cstdint>
#include <ostream>

#include "obs/metrics.hh"
#include "svc/cache.hh"
#include "svc/query.hh"
#include "util/json.hh"

namespace hcm {
namespace svc {

/** Counters + latency for one query type. */
struct QueryTypeStats
{
    std::uint64_t queries = 0;
    std::uint64_t cacheHits = 0;
    obs::Histogram latency; ///< nanoseconds
};

/** Thread-safe registry of per-query-type metrics. */
class MetricsRegistry
{
  public:
    MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Record one served query of @p type taking @p nanos. */
    void recordQuery(QueryType type, std::uint64_t nanos, bool cacheHit);

    /** Count one query that crossed the engine's slow-query threshold. */
    void recordSlowQuery();

    /** Queries counted by recordSlowQuery() so far. */
    std::uint64_t slowQueries() const;

    /**
     * Failure counters, disjoint by outcome: recordError() counts
     * evaluations that threw (hcm_svc_errors_total),
     * recordDeadlineExceeded() queries that missed their deadline
     * (hcm_svc_deadline_exceeded_total), recordRejected() admissions
     * shed by backpressure or shutdown (hcm_svc_rejected_total).
     * Failed queries do not feed the latency histograms.
     */
    void recordError();
    void recordDeadlineExceeded();
    void recordRejected();

    std::uint64_t errors() const;
    std::uint64_t deadlineExceeded() const;
    std::uint64_t rejected() const;

    /** Copy of the stats for @p type. */
    QueryTypeStats snapshot(QueryType type) const;

    /** Total queries served across types. */
    std::uint64_t totalQueries() const;

    /**
     * Emit the metrics document:
     * {"totalQueries": N,
     *  "slowQueries": N,
     *  "errors": N, "deadlineExceeded": N, "rejected": N,
     *  "queryTypes": {"optimize": {"count": ..., "cacheHits": ...,
     *                 "latencyMs": {"mean": ..., "p50": ..., "p95": ...,
     *                               "p99": ...}}, ...},
     *  "cache": {...}}          // when @p cache is non-null
     */
    void writeJson(JsonWriter &json,
                   const CacheStats *cache = nullptr) const;

    /**
     * The same metrics in Prometheus text format:
     * hcm_svc_queries_total{type=...}, hcm_svc_query_cache_hits_total,
     * hcm_svc_query_latency_ns histograms, plus hcm_svc_cache_* series
     * when @p cache is non-null.
     */
    void writePrometheus(std::ostream &out,
                         const CacheStats *cache = nullptr) const;

    /** The underlying generic registry (exporters, tests). */
    const obs::Registry &registry() const { return _registry; }

  private:
    /** Per-type instruments, resolved once at construction. */
    struct PerType
    {
        obs::Counter *queries = nullptr;
        obs::Counter *cacheHits = nullptr;
        obs::Histogram *latency = nullptr;
    };

    obs::Registry _registry;
    std::array<PerType, 4> _byType;
    obs::Counter *_slowQueries = nullptr;
    obs::Counter *_errors = nullptr;
    obs::Counter *_deadlineExceeded = nullptr;
    obs::Counter *_rejected = nullptr;
};

} // namespace svc
} // namespace hcm

#endif // HCM_SVC_METRICS_HH
