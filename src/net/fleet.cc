#include "fleet.hh"

#include <algorithm>
#include <cstdio>

#include "net/front_door.hh"
#include "util/json_parse.hh"
#include "util/logging.hh"

namespace hcm {
namespace net {
namespace {

/** The widened metrics request every scrape sends. */
const char kScrapeRequest[] =
    "{\"type\":\"metrics\",\"scope\":\"all\"}";

/** Member as uint64 (0 when absent or non-numeric). */
std::uint64_t
memberU64(const JsonValue &obj, const char *name)
{
    const JsonValue *v = obj.find(name);
    return v && v->isNumber() ? static_cast<std::uint64_t>(v->asNumber())
                              : 0;
}

/** Member as double (0 when absent or non-numeric). */
double
memberDouble(const JsonValue &obj, const char *name)
{
    const JsonValue *v = obj.find(name);
    return v && v->isNumber() ? v->asNumber() : 0.0;
}

/**
 * Sum of the values of every gauge named @p name in a process
 * registry dump (the "gauges" array of obs::Registry::writeJson) —
 * sharded pools register one queue-depth gauge per label set.
 */
std::int64_t
sumGauges(const JsonValue &process, const char *name)
{
    const JsonValue *gauges = process.find("gauges");
    if (!gauges || !gauges->isArray())
        return 0;
    std::int64_t sum = 0;
    for (const JsonValue &gauge : gauges->items()) {
        if (!gauge.isObject())
            continue;
        const JsonValue *gauge_name = gauge.find("name");
        if (!gauge_name || !gauge_name->isString() ||
            gauge_name->asString() != name)
            continue;
        sum += static_cast<std::int64_t>(memberDouble(gauge, "value"));
    }
    return sum;
}

/** Distill one shard's scrape payload into its status row. */
void
applyScrape(const JsonValue &doc, ShardStatus *status)
{
    const JsonValue *svc = doc.find("svc");
    if (svc && svc->isObject()) {
        status->queries = memberU64(*svc, "totalQueries");
        status->errors = memberU64(*svc, "errors");
        status->deadlineExceeded = memberU64(*svc, "deadlineExceeded");
        status->rejected = memberU64(*svc, "rejected");
        status->slowQueries = memberU64(*svc, "slowQueries");
        const JsonValue *types = svc->find("queryTypes");
        if (types && types->isObject()) {
            double weight = 0.0;
            double p50 = 0.0, p95 = 0.0, p99 = 0.0;
            for (const auto &[name, stats] : types->members()) {
                (void)name;
                if (!stats.isObject())
                    continue;
                double count =
                    static_cast<double>(memberU64(stats, "count"));
                const JsonValue *latency = stats.find("latencyMs");
                if (count <= 0.0 || !latency || !latency->isObject())
                    continue;
                weight += count;
                p50 += count * memberDouble(*latency, "p50");
                p95 += count * memberDouble(*latency, "p95");
                p99 += count * memberDouble(*latency, "p99");
            }
            if (weight > 0.0) {
                status->p50Ms = p50 / weight;
                status->p95Ms = p95 / weight;
                status->p99Ms = p99 / weight;
            }
        }
        const JsonValue *cache = svc->find("cache");
        if (cache && cache->isObject())
            status->cacheHitRate = memberDouble(*cache, "hitRate");
    }
    const JsonValue *process = doc.find("process");
    if (process && process->isObject()) {
        status->queueDepth = sumGauges(*process, "hcm_pool_queue_depth");
        status->uptimeSec =
            sumGauges(*process, "hcm_process_uptime_seconds");
        status->rssBytes =
            sumGauges(*process, "hcm_process_resident_memory_bytes");
        status->peakRssBytes = sumGauges(
            *process, "hcm_process_peak_resident_memory_bytes");
    }
}

} // namespace

FleetCollector::FleetCollector(std::vector<ShardBackend *> backends)
    : _backends(std::move(backends)), _states(_backends.size())
{
    for (std::size_t i = 0; i < _backends.size(); ++i)
        _states[i].status.name = _backends[i]->name();
}

FleetCollector::~FleetCollector()
{
    if (!_thread.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(_stopMu);
        _stopping = true;
    }
    _stopCv.notify_all();
    _thread.join();
}

void
FleetCollector::start(std::uint64_t interval_ms)
{
    hcm_assert(!_thread.joinable(), "fleet collector already started");
    hcm_assert(interval_ms > 0, "scrape interval must be > 0");
    _thread = std::thread([this, interval_ms] { runLoop(interval_ms); });
}

void
FleetCollector::runLoop(std::uint64_t interval_ms)
{
    using Clock = std::chrono::steady_clock;
    while (true) {
        scrapeOnce();
        // The deadline saturates at the clock's end: a longer interval
        // (the flag takes up to 1.8e13 ms) would wrap into the past,
        // and the loop would spin.
        Clock::time_point now = Clock::now();
        auto room = std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::time_point::max() - now);
        Clock::time_point deadline =
            now + std::chrono::milliseconds(std::min<std::uint64_t>(
                      interval_ms, static_cast<std::uint64_t>(room.count())));
        std::unique_lock<std::mutex> lock(_stopMu);
        if (_stopCv.wait_until(lock, deadline,
                               [this] { return _stopping; }))
            return;
    }
}

void
FleetCollector::scrapeShard(std::size_t index)
{
    std::string response;
    std::string error;
    bool ok = _backends[index]->roundTrip(kScrapeRequest, &response,
                                          &error);
    auto doc = ok ? JsonValue::parse(response, &error) : std::nullopt;
    auto now = std::chrono::steady_clock::now();

    std::lock_guard<std::mutex> lock(_mu);
    ShardState &state = _states[index];
    if (!ok || !doc || !doc->isObject()) {
        state.status.up = false;
        state.status.error =
            ok ? "malformed metrics payload: " + error : error;
        state.status.qps = 0.0;
        // Cumulative fields keep their last good values so the fleet
        // view degrades to "stale" rather than "empty".
        return;
    }
    state.status.up = true;
    state.status.error.clear();
    applyScrape(*doc, &state.status);
    if (state.sampled) {
        double dt = std::chrono::duration<double>(now - state.lastSample)
                        .count();
        state.status.qps =
            dt > 0.0 && state.status.queries >= state.lastQueries
                ? static_cast<double>(state.status.queries -
                                      state.lastQueries) /
                      dt
                : 0.0;
    }
    state.sampled = true;
    state.lastQueries = state.status.queries;
    state.lastSample = now;
    state.lastSuccess = now;
}

void
FleetCollector::scrapeOnce()
{
    for (std::size_t i = 0; i < _backends.size(); ++i)
        scrapeShard(i);
    std::lock_guard<std::mutex> lock(_mu);
    _everScraped = true;
}

bool
FleetCollector::everScraped() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _everScraped;
}

std::vector<ShardStatus>
FleetCollector::snapshot() const
{
    auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(_mu);
    std::vector<ShardStatus> out;
    out.reserve(_states.size());
    for (const ShardState &state : _states) {
        ShardStatus status = state.status;
        status.scrapeAgeMs =
            state.sampled
                ? static_cast<std::uint64_t>(
                      std::chrono::duration_cast<
                          std::chrono::milliseconds>(
                          now - state.lastSuccess)
                          .count())
                : 0;
        out.push_back(std::move(status));
    }
    return out;
}

void
writeShardStatusJson(JsonWriter &json,
                     const std::vector<ShardStatus> &shards)
{
    json.beginArray();
    for (const ShardStatus &shard : shards) {
        json.beginObject();
        json.kv("shard", shard.name);
        json.kv("up", shard.up);
        if (!shard.error.empty())
            json.kv("error", shard.error);
        json.kv("qps", shard.qps);
        json.kv("queries", shard.queries);
        json.kv("errors", shard.errors);
        json.kv("deadlineExceeded", shard.deadlineExceeded);
        json.kv("rejected", shard.rejected);
        json.kv("slowQueries", shard.slowQueries);
        json.kv("p50Ms", shard.p50Ms);
        json.kv("p95Ms", shard.p95Ms);
        json.kv("p99Ms", shard.p99Ms);
        json.kv("cacheHitRate", shard.cacheHitRate);
        json.kv("queueDepth", static_cast<long long>(shard.queueDepth));
        json.kv("uptimeSec", static_cast<long long>(shard.uptimeSec));
        json.kv("rssBytes", static_cast<long long>(shard.rssBytes));
        json.kv("peakRssBytes",
                static_cast<long long>(shard.peakRssBytes));
        json.kv("scrapeAgeMs", shard.scrapeAgeMs);
        json.endObject();
    }
    json.endArray();
}

bool
parseFleetResponse(const std::string &text,
                   std::vector<ShardStatus> *shards,
                   FrontCounters *front, std::string *error)
{
    shards->clear();
    *front = FrontCounters{};
    std::string parse_error;
    auto doc = JsonValue::parse(text, &parse_error);
    if (!doc || !doc->isObject()) {
        if (error)
            *error = doc ? "fleet response is not an object"
                         : "not valid JSON: " + parse_error;
        return false;
    }
    const JsonValue *rows = doc->find("shards");
    if (!rows || !rows->isArray()) {
        if (error)
            *error = "fleet response has no \"shards\" array";
        return false;
    }
    for (const JsonValue &row : rows->items()) {
        if (!row.isObject()) {
            if (error)
                *error = "fleet shard row is not an object";
            return false;
        }
        ShardStatus status;
        const JsonValue *name = row.find("shard");
        status.name =
            name && name->isString() ? name->asString() : "?";
        const JsonValue *up = row.find("up");
        status.up = up && up->isBool() && up->asBool();
        const JsonValue *row_error = row.find("error");
        if (row_error && row_error->isString())
            status.error = row_error->asString();
        status.qps = memberDouble(row, "qps");
        status.queries = memberU64(row, "queries");
        status.errors = memberU64(row, "errors");
        status.deadlineExceeded = memberU64(row, "deadlineExceeded");
        status.rejected = memberU64(row, "rejected");
        status.slowQueries = memberU64(row, "slowQueries");
        status.p50Ms = memberDouble(row, "p50Ms");
        status.p95Ms = memberDouble(row, "p95Ms");
        status.p99Ms = memberDouble(row, "p99Ms");
        status.cacheHitRate = memberDouble(row, "cacheHitRate");
        status.queueDepth =
            static_cast<std::int64_t>(memberDouble(row, "queueDepth"));
        status.uptimeSec =
            static_cast<std::int64_t>(memberDouble(row, "uptimeSec"));
        status.rssBytes =
            static_cast<std::int64_t>(memberDouble(row, "rssBytes"));
        status.peakRssBytes = static_cast<std::int64_t>(
            memberDouble(row, "peakRssBytes"));
        status.scrapeAgeMs = memberU64(row, "scrapeAgeMs");
        shards->push_back(std::move(status));
    }
    const JsonValue *counters = doc->find("front");
    if (counters && counters->isObject()) {
        front->routed = memberU64(*counters, "routed");
        front->shed = memberU64(*counters, "shed");
        front->shardUnavailable =
            memberU64(*counters, "shardUnavailable");
    }
    return true;
}

std::string
renderFleetTable(const std::vector<ShardStatus> &shards)
{
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-22s %-5s %9s %9s %9s %9s %7s %6s %7s %9s %9s\n",
                  "SHARD", "UP", "QPS", "P50MS", "P95MS", "P99MS",
                  "QUEUE", "HIT%", "SHED", "RSS_MB", "PEAK_MB");
    out += line;
    for (const ShardStatus &shard : shards) {
        std::snprintf(
            line, sizeof(line),
            "%-22s %-5s %9.1f %9.2f %9.2f %9.2f %7lld %6.1f %7llu "
            "%9.1f %9.1f\n",
            shard.name.c_str(), shard.up ? "yes" : "NO", shard.qps,
            shard.p50Ms, shard.p95Ms, shard.p99Ms,
            static_cast<long long>(shard.queueDepth),
            shard.cacheHitRate * 100.0,
            static_cast<unsigned long long>(shard.rejected),
            static_cast<double>(shard.rssBytes) / (1024.0 * 1024.0),
            static_cast<double>(shard.peakRssBytes) /
                (1024.0 * 1024.0));
        out += line;
        if (!shard.up && !shard.error.empty())
            out += "  ^ " + shard.error + "\n";
    }
    return out;
}

} // namespace net
} // namespace hcm
