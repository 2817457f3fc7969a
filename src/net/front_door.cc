#include "front_door.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <sstream>
#include <thread>

#include "net/fleet.hh"
#include "net/framing.hh"
#include "net/hash_ring.hh"
#include "obs/metrics.hh"
#include "obs/request_id.hh"
#include "obs/trace.hh"
#include "svc/backpressure.hh"
#include "svc/flight_recorder.hh"
#include "svc/request.hh"
#include "svc/service.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace hcm {
namespace net {
TcpShardBackend::TcpShardBackend(const std::string &host,
                                 std::uint16_t port,
                                 std::uint64_t timeout_ms)
    : _host(host),
      _port(port),
      _timeoutMs(timeout_ms),
      _name(host + ":" + std::to_string(port))
{
}

bool
TcpShardBackend::ensureConnectedLocked(std::string *error)
{
    if (_sock.valid())
        return true;
    Socket sock = connectTo(_host, _port, _timeoutMs, error);
    if (!sock.valid())
        return false;
    if (_timeoutMs > 0 && !sock.setIoTimeoutMs(_timeoutMs, error))
        return false;
    _sock = std::move(sock);
    return true;
}

bool
TcpShardBackend::roundTrip(const std::string &request,
                           std::string *response, std::string *error)
{
    std::lock_guard<std::mutex> lock(_mu);
    if (!ensureConnectedLocked(error))
        return false;
    std::string frame = encodeFrame(request);
    if (!_sock.sendAll(frame.data(), frame.size(), error)) {
        // The connection died since the last round trip (shard
        // restarted, idle reset). One fresh connect attempt before
        // declaring the shard lost.
        _sock.close();
        if (!ensureConnectedLocked(error) ||
            !_sock.sendAll(frame.data(), frame.size(), error))
            return false;
    }
    FrameDecoder decoder;
    char buf[64 * 1024];
    while (true) {
        if (decoder.next(response))
            return true;
        if (decoder.failed()) {
            if (error)
                *error = decoder.error();
            _sock.close();
            return false;
        }
        long n = _sock.recvSome(buf, sizeof(buf), error);
        if (n <= 0) {
            if (n == 0 && error)
                *error = "shard closed the connection mid-response";
            _sock.close(); // timeouts poison request/response pairing
            return false;
        }
        decoder.feed(buf, static_cast<std::size_t>(n));
    }
}

bool
ShardBackend::answerQuery(const ShardQuery &q, std::string *response,
                          std::string *error)
{
    // A text that parsed as a query is a JSON object, so the splice
    // cannot fail; the shard parses the id back out and echoes it.
    if (q.idMinted)
        if (auto tagged = svc::injectRequestId(q.text, q.query.requestId))
            return roundTrip(*tagged, response, error);
    return roundTrip(q.text, response, error);
}

bool
parseHostPort(const std::string &spec, std::string *host,
              std::uint16_t *port, std::string *error)
{
    std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= spec.size()) {
        if (error)
            *error = "expected host:port, got '" + spec + "'";
        return false;
    }
    auto value = parseNumber<std::uint16_t>(
        std::string_view(spec).substr(colon + 1));
    if (!value || *value == 0) {
        if (error)
            *error = "bad port in '" + spec + "'";
        return false;
    }
    *host = spec.substr(0, colon);
    *port = *value;
    return true;
}

/**
 * The front door internals: the ring, the backends, a fan-out pool of
 * one worker per shard for batch requests, and the net routing metrics.
 */
class FrontDoor::Impl
{
  public:
    Impl(std::vector<std::unique_ptr<ShardBackend>> backends,
         FrontDoorOptions opts)
        : _backends(std::move(backends)),
          _routed(obs::globalRegistry().counter(
              "hcm_net_routed_total")),
          _shed(obs::globalRegistry().counter("hcm_net_shed_total")),
          _shardUnavailable(obs::globalRegistry().counter(
              "hcm_net_shard_unavailable_total"))
    {
        hcm_assert(!_backends.empty(),
                   "front door needs at least one shard backend");
        std::vector<ShardBackend *> fleet_backends;
        for (const auto &backend : _backends) {
            _ring.addShard(backend->name());
            // Per-shard series beside the unlabeled totals, so the
            // fleet view (and CI) can tell a hot shard from a dead one.
            obs::Labels labels = {{"shard", backend->name()}};
            _routedByShard.push_back(&obs::globalRegistry().counter(
                "hcm_net_routed_total", labels));
            _unavailableByShard.push_back(
                &obs::globalRegistry().counter(
                    "hcm_net_shard_unavailable_total", labels));
            fleet_backends.push_back(backend.get());
        }
        hcm_assert(_ring.shardCount() == _backends.size(),
                   "shard backend names must be unique");
        _fleet = std::make_unique<FleetCollector>(
            std::move(fleet_backends));
        if (opts.scrapeIntervalMs > 0)
            _fleet->start(opts.scrapeIntervalMs);
        for (std::size_t i = 0; i < _backends.size(); ++i)
            _workers.emplace_back([this] { workerLoop(); });
    }

    ~Impl()
    {
        {
            std::lock_guard<std::mutex> lock(_mu);
            _stopping = true;
        }
        _wake.notify_all();
        for (std::thread &w : _workers)
            w.join();
    }

    std::string
    handle(const std::string &request)
    {
        obs::Span span("net.route", "net");
        svc::ParsedRequest parsed = svc::classifyRequest(request);
        switch (parsed.kind) {
          case svc::ParsedRequest::Kind::Query: {
            span.arg("kind", "query");
            // The front door is the fleet's ingress: requests without
            // trace context get an id minted here, which the owning
            // shard stamps into its spans and logs. Client-supplied
            // ids forward untouched (the raw text already carries
            // them).
            bool minted = mintIfAbsent(parsed.query);
            std::string key = parsed.query.canonicalKey();
            return dispatch({parsed.query, key, request, minted});
          }
          case svc::ParsedRequest::Kind::Batch:
            span.arg("kind", "batch");
            return handleBatch(parsed.batch);
          case svc::ParsedRequest::Kind::Verb:
            if (parsed.verb == "metrics")
                return handleMetrics(parsed);
            if (parsed.verb == "fleet")
                return handleFleet();
            if (parsed.verb == "requests")
                return handleRequests(parsed);
            break;
          case svc::ParsedRequest::Kind::Invalid:
            break;
        }
        span.arg("kind", "error");
        return svc::errorBody(parsed.error);
    }

    const std::string *
    shardForKey(const std::string &key) const
    {
        return _ring.shardFor(key);
    }

  private:
    /**
     * Give @p q a minted id, echoed in the shard's error answers like
     * one parsed from spliced bytes, when it has none; true if minted.
     */
    static bool
    mintIfAbsent(svc::Query &q)
    {
        if (!q.requestId.empty())
            return false;
        q.requestId = obs::mintRequestId();
        q.requestIdEcho = true;
        return true;
    }

    /** Route one parsed query to the shard owning its key. */
    std::string
    dispatch(const ShardQuery &sq)
    {
        const svc::Query &q = sq.query;
        std::size_t index = _ring.shardIndexFor(sq.key);
        ShardBackend &backend = *_backends[index];
        // One slice per hop: batch members dispatch on fan-out
        // workers outside the net.route slice, so the flow start
        // needs its own enclosing span on this thread. Its duration is
        // the shard hop the flight record keeps.
        obs::Span span("net.dispatch", "net",
                       svc::FlightRecorder::instance().enabled());
        span.arg("shard", backend.name());
        if (!q.requestId.empty()) {
            span.arg("rid", q.requestId);
            if (span.active())
                obs::Tracer::instance().recordFlow("req", "net", 's',
                                                   q.requestId);
        }
        _routed.add(1);
        _routedByShard[index]->add(1);
        std::string response;
        std::string error;
        bool answered = backend.answerQuery(sq, &response, &error);
        std::uint64_t net_ns = span.end();
        if (!answered) {
            _shardUnavailable.add(1);
            _unavailableByShard[index]->add(1);
            hcm_warn("shard unavailable",
                     logField("shard", backend.name()),
                     logField("requestId", q.requestId.empty()
                                               ? "-"
                                               : q.requestId),
                     logField("error", error));
            svc::recordFlight(q, "shard_unavailable", 0, 0, net_ns,
                              backend.name());
            std::size_t outstanding =
                _outstanding.load(std::memory_order_relaxed);
            // The door's own answer: an id it minted stays out of it.
            svc::Query echo = q;
            echo.requestIdEcho = q.requestIdEcho && !sq.idMinted;
            return svc::makeQueryError(
                       echo, svc::QueryErrorKind::ShardUnavailable,
                       "shard " + backend.name() +
                           " unavailable: " + error,
                       svc::backoffHintMs(svc::kDefaultPerTaskMs,
                                          outstanding + 1, 1))
                .toJson();
        }
        std::string error_type = svc::responseErrorType(response);
        if (error_type == "overloaded")
            _shed.add(1);
        svc::recordFlight(q, error_type.empty() ? "ok" : error_type.c_str(),
                          0, 0, net_ns, backend.name());
        return response;
    }

    std::string
    handleBatch(svc::BatchRequests &batch)
    {
        // The batch parse kept each member's raw bytes beside the
        // query parsed from them, so byte-forwarding shards receive
        // exactly what was validated (re-serialization would round
        // doubles). Each member is its own hop with its own trace
        // context; members that arrived without an id get one here.
        std::vector<svc::Query> &queries = batch.queries;
        std::vector<std::string> &texts = batch.texts;
        std::vector<std::string> keys(queries.size());
        std::vector<char> minted(queries.size());
        for (std::size_t i = 0; i < queries.size(); ++i) {
            minted[i] = mintIfAbsent(queries[i]);
            keys[i] = queries[i].canonicalKey();
        }

        std::vector<std::string> responses(queries.size());
        std::atomic<std::size_t> next{0};
        std::size_t count = queries.size();
        auto work = [&]() {
            while (true) {
                std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= count)
                    return;
                _outstanding.fetch_add(1, std::memory_order_relaxed);
                responses[i] = dispatch(
                    {queries[i], keys[i], texts[i], minted[i] != 0});
                _outstanding.fetch_sub(1, std::memory_order_relaxed);
            }
        };
        runFanout(work, count);

        // Merge in input order: each element is the same answer bytes
        // a single-process engine would emit.
        std::string body;
        JsonWriter json(body);
        svc::writeBatchAnswer(json, count, [&](std::size_t i) {
            json.raw(responses[i]);
        });
        return body;
    }

    std::string
    handleMetrics(const svc::ParsedRequest &request)
    {
        std::string body;
        // The door has no engine of its own, so both scopes answer the
        // process registry; a bad scope is refused as a plain serve
        // refuses it.
        auto format = svc::verbFormat(request, true, &body);
        if (!format || !svc::metricsScope(request, &body))
            return body;
        return svc::metricsPayload(nullptr, *format, "svc");
    }

    /** The fleet verb: per-shard telemetry plus this door's counters. */
    std::string
    handleFleet()
    {
        // Without a background scraper every request scrapes fresh
        // (deterministic `hcm top --once`); with one, serve the
        // latest snapshot.
        if (!_fleet->periodic() || !_fleet->everScraped())
            _fleet->scrapeOnce();
        std::vector<ShardStatus> shards = _fleet->snapshot();
        std::ostringstream oss;
        {
            JsonWriter json(oss);
            json.beginObject();
            json.key("shards");
            writeShardStatusJson(json, shards);
            json.key("front").beginObject();
            json.kv("routed", _routed.value());
            json.kv("shed", _shed.value());
            json.kv("shardUnavailable", _shardUnavailable.value());
            json.endObject();
            json.endObject();
        }
        return oss.str();
    }

    /** The requests verb: this process's flight-recorder ring. */
    std::string
    handleRequests(const svc::ParsedRequest &request)
    {
        std::string body;
        if (!svc::verbFormat(request, false, &body))
            return body;
        JsonWriter json(body);
        svc::FlightRecorder::instance().writeJson(json);
        return body;
    }

    /**
     * Run @p work on the fan-out pool (up to @p count instances) and
     * on the calling thread, returning once every item completed. The
     * caller participating guarantees progress even with a busy pool.
     */
    void
    runFanout(const std::function<void()> &work, std::size_t count)
    {
        std::size_t helpers =
            std::min(count > 0 ? count - 1 : 0, _workers.size());
        std::mutex done_mu;
        std::condition_variable done_cv;
        std::size_t remaining = helpers; // guarded by done_mu
        {
            std::lock_guard<std::mutex> lock(_mu);
            for (std::size_t i = 0; i < helpers; ++i) {
                _tasks.push_back([&] {
                    work();
                    // Count down under done_mu and notify while still
                    // holding it: the waiter cannot wake, see zero,
                    // and destroy these locals before we are done
                    // touching them.
                    std::lock_guard<std::mutex> done_lock(done_mu);
                    if (--remaining == 0)
                        done_cv.notify_one();
                });
            }
        }
        _wake.notify_all();
        work();
        std::unique_lock<std::mutex> done_lock(done_mu);
        done_cv.wait(done_lock, [&] { return remaining == 0; });
    }

    void
    workerLoop()
    {
        while (true) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(_mu);
                _wake.wait(lock, [this] {
                    return _stopping || !_tasks.empty();
                });
                if (_tasks.empty())
                    return; // stopping
                task = std::move(_tasks.front());
                _tasks.pop_front();
            }
            task();
        }
    }

    std::vector<std::unique_ptr<ShardBackend>> _backends;
    HashRing _ring;
    obs::Counter &_routed;
    obs::Counter &_shed;
    obs::Counter &_shardUnavailable;
    std::vector<obs::Counter *> _routedByShard;
    std::vector<obs::Counter *> _unavailableByShard;
    /** After _backends: its scraper thread must stop first. */
    std::unique_ptr<FleetCollector> _fleet;
    std::atomic<std::size_t> _outstanding{0};

    std::mutex _mu;
    std::condition_variable _wake;
    std::deque<std::function<void()>> _tasks;
    std::vector<std::thread> _workers;
    bool _stopping = false;
};

FrontDoor::FrontDoor(std::vector<std::unique_ptr<ShardBackend>> backends,
                     FrontDoorOptions opts)
    : _impl(std::make_unique<Impl>(std::move(backends), opts))
{
}

FrontDoor::~FrontDoor() = default;

std::string
FrontDoor::handle(const std::string &request)
{
    return _impl->handle(request);
}

const std::string *
FrontDoor::shardForKey(const std::string &key) const
{
    return _impl->shardForKey(key);
}

} // namespace net
} // namespace hcm
