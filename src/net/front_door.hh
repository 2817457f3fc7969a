/**
 * @file
 * The routing tier: a FrontDoor owns a consistent-hash ring of shard
 * backends — each backend one engine instance that owns a slice of
 * the canonical memoization-key space — and dispatches request
 * payloads at them:
 *
 *  - a single query routes to the shard owning its canonical key (so
 *    a key is only ever evaluated, and cached, in one place);
 *  - a batch document fans its queries out across shards concurrently
 *    and merges the responses back in input order, byte-identical to
 *    what a single-process engine would answer;
 *  - control verbs (metrics) answer locally from the front door's own
 *    registry; malformed requests answer {"error": ...} locally.
 *
 * Degraded mode: a backend that cannot be reached (shard process
 * killed, connection refused, I/O timeout) yields a structured
 * shard_unavailable error result carrying a retryAfterMs hint from
 * the shared svc backoff heuristic — never a hang, and never a
 * whole-batch failure: healthy shards' results still come back.
 *
 * Backends come in two flavors: LocalShardBackend wraps an in-process
 * QueryEngine (single-command sharded serving, unit tests);
 * TcpShardBackend speaks the framed protocol to a shard process and
 * reconnects lazily after failures.
 */

#ifndef HCM_NET_FRONT_DOOR_HH
#define HCM_NET_FRONT_DOOR_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/socket.hh"
#include "svc/router.hh"

namespace hcm {
namespace net {

/**
 * One single query as the front door hands it to the shard that owns
 * it: parsed and keyed once, at the door.
 */
struct ShardQuery
{
    /**
     * The query exactly as the shard would parse it from the forwarded
     * bytes. An id the door minted is set and echoed in error answers
     * (requestIdEcho), as the shard's parse of the spliced bytes would
     * have it.
     */
    const svc::Query &query;
    const std::string &key;  ///< query.canonicalKey()
    const std::string &text; ///< the request bytes as the client sent them
    /** The door minted query.requestId: @c text does not carry it. */
    bool idMinted = false;
};

/** One shard's transport: a request payload in, a response out. */
class ShardBackend
{
  public:
    virtual ~ShardBackend() = default;

    /** Stable shard name (the ring key, e.g. "127.0.0.1:7301"). */
    virtual const std::string &name() const = 0;

    /**
     * Answer @p request. False with @p error set when the shard is
     * unreachable — the front door turns that into shard_unavailable.
     */
    virtual bool roundTrip(const std::string &request,
                           std::string *response,
                           std::string *error) = 0;

    /**
     * Answer one single query (a request or a batch member). The
     * default forwards its bytes through roundTrip(), with a
     * door-minted id spliced in; a backend holding the engine answers
     * the parsed query instead, byte for byte the same.
     */
    virtual bool answerQuery(const ShardQuery &q, std::string *response,
                             std::string *error);
};

/** In-process backend: one QueryEngine behind a RequestRouter. */
class LocalShardBackend : public ShardBackend
{
  public:
    LocalShardBackend(std::string name, svc::QueryEngine &engine)
        : _name(std::move(name)), _router(engine)
    {
    }

    const std::string &name() const override { return _name; }

    bool
    roundTrip(const std::string &request, std::string *response,
              std::string *error) override
    {
        (void)error;
        *response = _router.route(request).body;
        return true;
    }

    /** The engine answers the door's query under the door's key. */
    bool
    answerQuery(const ShardQuery &q, std::string *response,
                std::string *error) override
    {
        (void)error;
        response->clear();
        _router.engine().evaluate(q.query, q.key)->appendTo(*response);
        return true;
    }

  private:
    std::string _name;
    svc::RequestRouter _router;
};

/** Framed-TCP backend with lazy (re)connection. */
class TcpShardBackend : public ShardBackend
{
  public:
    /**
     * @p host:@p port is also the shard's ring name. @p timeout_ms
     * bounds connect and each I/O operation — the "never hangs" half
     * of the degraded-mode contract.
     */
    TcpShardBackend(const std::string &host, std::uint16_t port,
                    std::uint64_t timeout_ms);

    const std::string &name() const override { return _name; }

    bool roundTrip(const std::string &request, std::string *response,
                   std::string *error) override;

  private:
    /** Ensure _sock is connected (one attempt); false on failure. */
    bool ensureConnectedLocked(std::string *error);

    std::string _host;
    std::uint16_t _port;
    std::uint64_t _timeoutMs;
    std::string _name;

    /** Serializes use of the one persistent connection. */
    std::mutex _mu;
    Socket _sock;
};

/** Parse "host:port"; false + @p error on a malformed address. */
bool parseHostPort(const std::string &spec, std::string *host,
                   std::uint16_t *port, std::string *error);

/** Front door policy knobs. */
struct FrontDoorOptions
{
    /**
     * Period of the background fleet scrape in milliseconds; 0 (the
     * default) disables the thread, and {"type":"fleet"} requests
     * then scrape on demand instead.
     */
    std::uint64_t scrapeIntervalMs = 0;
};

/** Routes request payloads across shard backends. */
class FrontDoor
{
  public:
    /** At least one backend; names must be unique. */
    FrontDoor(std::vector<std::unique_ptr<ShardBackend>> backends,
              FrontDoorOptions opts = {});

    ~FrontDoor();

    FrontDoor(const FrontDoor &) = delete;
    FrontDoor &operator=(const FrontDoor &) = delete;

    /**
     * Answer one request payload (the TcpServer handler signature).
     * Single queries route by canonical key; batch documents fan out
     * and merge in input order; {"type":"metrics"} answers from the
     * process registry, {"type":"fleet"} with the scraped per-shard
     * telemetry, {"type":"requests"} with this process's flight
     * recorder; anything else answers {"error": ...}. Queries that
     * arrive without a requestId get one minted, which the owning
     * shard sees (ShardQuery::idMinted).
     */
    std::string handle(const std::string &request);

    /** The shard (ring) name owning @p canonical_key, for tests. */
    const std::string *shardForKey(const std::string &key) const;

  private:
    class Impl;
    std::unique_ptr<Impl> _impl;
};

} // namespace net
} // namespace hcm

#endif // HCM_NET_FRONT_DOOR_HH
