#include "metrics.hh"

namespace hcm {
namespace svc {

MetricsRegistry::MetricsRegistry()
{
    // One pass per metric name keeps each name's series contiguous in
    // the registry, the grouping the Prometheus exporter emits.
    for (QueryType type : allQueryTypes())
        _byType[static_cast<std::size_t>(type)].queries =
            &_registry.counter("hcm_svc_queries_total",
                               {{"type", queryTypeName(type)}});
    for (QueryType type : allQueryTypes())
        _byType[static_cast<std::size_t>(type)].cacheHits =
            &_registry.counter("hcm_svc_query_cache_hits_total",
                               {{"type", queryTypeName(type)}});
    for (QueryType type : allQueryTypes())
        _byType[static_cast<std::size_t>(type)].latency =
            &_registry.histogram("hcm_svc_query_latency_ns",
                                 {{"type", queryTypeName(type)}});
    // Registered after the per-type families so the Prometheus export
    // appends them without disturbing the existing series order.
    _slowQueries = &_registry.counter("hcm_svc_slow_queries_total");
    _errors = &_registry.counter("hcm_svc_errors_total");
    _deadlineExceeded =
        &_registry.counter("hcm_svc_deadline_exceeded_total");
    _rejected = &_registry.counter("hcm_svc_rejected_total");
}

void
MetricsRegistry::recordError()
{
    _errors->add(1);
}

void
MetricsRegistry::recordDeadlineExceeded()
{
    _deadlineExceeded->add(1);
}

void
MetricsRegistry::recordRejected()
{
    _rejected->add(1);
}

std::uint64_t
MetricsRegistry::errors() const
{
    return _errors->value();
}

std::uint64_t
MetricsRegistry::deadlineExceeded() const
{
    return _deadlineExceeded->value();
}

std::uint64_t
MetricsRegistry::rejected() const
{
    return _rejected->value();
}

void
MetricsRegistry::recordSlowQuery()
{
    _slowQueries->add(1);
}

std::uint64_t
MetricsRegistry::slowQueries() const
{
    return _slowQueries->value();
}

void
MetricsRegistry::recordQuery(QueryType type, std::uint64_t nanos,
                             bool cacheHit)
{
    const PerType &instruments = _byType[static_cast<std::size_t>(type)];
    instruments.queries->add(1);
    if (cacheHit)
        instruments.cacheHits->add(1);
    instruments.latency->record(nanos);
}

QueryTypeStats
MetricsRegistry::snapshot(QueryType type) const
{
    const PerType &instruments = _byType[static_cast<std::size_t>(type)];
    QueryTypeStats stats;
    stats.queries = instruments.queries->value();
    stats.cacheHits = instruments.cacheHits->value();
    stats.latency = *instruments.latency;
    return stats;
}

std::uint64_t
MetricsRegistry::totalQueries() const
{
    std::uint64_t total = 0;
    for (const PerType &instruments : _byType)
        total += instruments.queries->value();
    return total;
}

void
MetricsRegistry::writeJson(JsonWriter &json,
                           const CacheStats *cache) const
{
    // Snapshot first, format after, as the locked original did.
    std::array<QueryTypeStats, 4> by_type;
    for (QueryType type : allQueryTypes())
        by_type[static_cast<std::size_t>(type)] = snapshot(type);
    std::uint64_t total = 0;
    for (const QueryTypeStats &stats : by_type)
        total += stats.queries;

    json.beginObject();
    json.kv("totalQueries", total);
    json.kv("slowQueries", _slowQueries->value());
    json.kv("errors", _errors->value());
    json.kv("deadlineExceeded", _deadlineExceeded->value());
    json.kv("rejected", _rejected->value());
    json.key("queryTypes").beginObject();
    for (QueryType type : allQueryTypes()) {
        const QueryTypeStats &stats =
            by_type[static_cast<std::size_t>(type)];
        json.key(queryTypeName(type)).beginObject();
        json.kv("count", stats.queries);
        json.kv("cacheHits", stats.cacheHits);
        json.key("latencyMs").beginObject();
        json.kv("mean", stats.latency.mean() / 1e6);
        json.kv("p50", stats.latency.percentile(50.0) / 1e6);
        json.kv("p95", stats.latency.percentile(95.0) / 1e6);
        json.kv("p99", stats.latency.percentile(99.0) / 1e6);
        json.endObject();
        json.endObject();
    }
    json.endObject();
    if (cache) {
        json.key("cache");
        cache->writeJson(json);
    }
    json.endObject();
}

void
MetricsRegistry::writePrometheus(std::ostream &out,
                                 const CacheStats *cache) const
{
    _registry.writePrometheus(out);
    if (!cache)
        return;
    out << "# TYPE hcm_svc_cache_hits_total counter\n"
        << "hcm_svc_cache_hits_total " << cache->hits << "\n"
        << "# TYPE hcm_svc_cache_misses_total counter\n"
        << "hcm_svc_cache_misses_total " << cache->misses << "\n"
        << "# TYPE hcm_svc_cache_evictions_total counter\n"
        << "hcm_svc_cache_evictions_total " << cache->evictions << "\n"
        << "# TYPE hcm_svc_cache_entries gauge\n"
        << "hcm_svc_cache_entries " << cache->entries << "\n"
        << "# TYPE hcm_svc_cache_bytes gauge\n"
        << "hcm_svc_cache_bytes " << cache->bytes << "\n"
        << "# TYPE hcm_svc_cache_capacity gauge\n"
        << "hcm_svc_cache_capacity " << cache->capacity << "\n";
}

} // namespace svc
} // namespace hcm
