/**
 * @file
 * The served-query workloads. The tier under test is the one
 * `hcm serve --port 0 --shards 2 --threads 1` builds, hosted in this
 * process: net::TcpServer -> net::FrontDoor -> 2 x LocalShardBackend ->
 * svc::QueryEngine with the default 4096-entry cache. Clients are the
 * benchmark's own: persistent loopback connections speaking the framed
 * protocol, driven open loop on a fixed schedule and then closed loop.
 */

#ifndef PERFBENCH_SERVE_HH
#define PERFBENCH_SERVE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "net/framing.hh"
#include "net/socket.hh"

namespace perfbench {

/**
 * Open-loop rates: about 30% and 10% of what the seed serves closed loop
 * on one CPU. At 1500 req/s serve-cold's p50 varied about three times as
 * much from run to run as at 750, with the same median.
 */
constexpr double kHotRate = 4000.0;
constexpr double kColdRate = 750.0;
/** Persistent client connections per serve workload. */
constexpr std::size_t kConnections = 2;
/** Requests in flight per connection in the closed loop. */
constexpr std::ptrdiff_t kClosedWindow = 8;
/** Distinct queries in the serve-hot key set. */
constexpr std::size_t kHotKeys = 256;
/** Warm-up requests of serve-cold (its own key stream). */
constexpr std::size_t kColdWarmup = 256;

/** What the oracle made of one response. */
enum class Verdict : std::uint8_t {
    Lost,     ///< no response arrived (transport failure)
    Pending,  ///< digested; the oracle has not run yet
    Ok,
    Mismatch, ///< differs from the oracle's bytes
};

/** One request's outcome, kept small: bodies are not stored. */
struct Record
{
    std::uint64_t index = 0;
    Digest digest;
    Verdict verdict = Verdict::Lost;
};

/** The byte-exact answer `hcm batch --results-only` gives @p payload. */
std::string oracleResponse(const std::string &payload);

/** A seeded request stream plus its oracle. */
class Traffic
{
  public:
    virtual ~Traffic() = default;

    /** Request @p index of @p stream. */
    virtual std::string payload(std::uint64_t stream,
                                std::uint64_t index) const = 0;

    /** Requests 0..n-1 of kStreamWarm are sent during set-up. */
    virtual std::size_t warmupCount() const = 0;

    /**
     * Judge @p response on the reader thread, cheaply: either a verdict
     * now or a digest left Pending for resolve().
     */
    virtual void inspect(std::uint64_t stream, const std::string &response,
                         Record *rec) const = 0;

    /** Settle a Pending record against the oracle. */
    virtual void resolve(std::uint64_t stream, Record *rec) const = 0;

    /** Open-loop rate of the workload in requests per second. */
    virtual double rate() const = 0;
};

/** serve-hot: Zipf(1.0) over 256 distinct queries; hits after warm-up. */
std::unique_ptr<Traffic> makeHotTraffic(std::uint64_t seed);

/** serve-cold: every request a fresh key. */
std::unique_ptr<Traffic> makeColdTraffic(std::uint64_t seed);

/**
 * Apply the process-wide settings `hcm serve` applies at start-up
 * (warn-level logging, a 256-entry flight recorder, the build-info and
 * process metrics).
 */
void configureServeProcess();

/** The in-process tier; the destructor stops and joins everything. */
class Tier
{
  public:
    Tier();
    ~Tier();

    Tier(const Tier &) = delete;
    Tier &operator=(const Tier &) = delete;

    std::uint16_t port() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

/** Send and receive timeout of a client connection. */
constexpr std::uint64_t kIoTimeoutMs = 10000;

/** One blocking client connection with its own frame decoder. */
class Connection
{
  public:
    explicit Connection(std::uint16_t port);

    bool ok() const { return _sock.valid(); }
    bool send(const std::string &payload);
    bool receive(std::string *payload);

  private:
    hcm::net::Socket _sock;
    hcm::net::FrameDecoder _decoder;
};

/** Results of one open-loop phase. */
struct OpenLoopResult
{
    std::vector<double> latencyMs; ///< from due time; +inf when failed
    std::vector<double> lateMs;    ///< send time minus due time
    std::vector<Record> records;
};

/**
 * Results of one closed-loop phase. Answers the reader could judge at
 * once are only counted, so memory does not grow with throughput.
 */
struct ClosedLoopResult
{
    double seconds = 0.0;      ///< start to the last answer
    std::uint64_t sent = 0;
    std::uint64_t settledOk = 0; ///< judged Ok on the reader thread
    /** Every other answer: Pending for resolveAll(), or a mismatch. */
    std::vector<Record> records;
};

/**
 * Send @p traffic's open-loop stream at its rate for @p seconds over
 * @p conns (one sender and one reader thread each).
 */
OpenLoopResult runOpenLoop(const Traffic &traffic,
                           std::vector<std::unique_ptr<Connection>> &conns,
                           double seconds);

/**
 * Closed loop for @p seconds: one thread per connection keeps
 * kClosedWindow requests in flight.
 */
ClosedLoopResult runClosedLoop(
    const Traffic &traffic, std::vector<std::unique_ptr<Connection>> &conns,
    double seconds);

/** Settle every Pending record, on up to @p threads threads. */
void resolveAll(const Traffic &traffic, std::uint64_t stream,
                std::vector<Record> &records, std::size_t threads);

/** A set-up tier with its connected, warmed clients. */
struct ServeRig
{
    std::unique_ptr<Tier> tier;
    std::vector<std::unique_ptr<Connection>> conns;
    std::vector<double> setupSeconds; ///< one per set-up made
    std::vector<Record> warmupRecords;
};

/**
 * Build, connect, and warm the tier @p repeats times, timing each, and
 * keep the last one up.
 */
ServeRig setUpServe(const Traffic &traffic, int repeats);

} // namespace perfbench

#endif // PERFBENCH_SERVE_HH
