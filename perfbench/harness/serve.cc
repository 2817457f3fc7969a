#include "serve.hh"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>

#include "net/framing.hh"
#include "net/front_door.hh"
#include "net/server.hh"
#include "obs/build_info.hh"
#include "obs/process_metrics.hh"
#include "svc/engine.hh"
#include "svc/flight_recorder.hh"
#include "svc/query.hh"
#include "svc/request.hh"
#include "util/logging.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

class HotTraffic : public Traffic
{
  public:
    explicit HotTraffic(std::uint64_t seed)
        : _seed(seed), _zipf(kHotKeys)
    {
        for (const QuerySpec &q : hotQuerySet(kHotKeys)) {
            _payloads.push_back(payloadFor(q));
            _expected.push_back(oracleResponse(_payloads.back()));
        }
    }

    std::string
    payload(std::uint64_t stream, std::uint64_t index) const override
    {
        return _payloads[rank(stream, index)];
    }

    std::size_t warmupCount() const override { return kHotKeys; }

    void
    inspect(std::uint64_t stream, const std::string &response,
            Record *rec) const override
    {
        std::size_t r = rank(stream, rec->index);
        rec->verdict =
            response == _expected[r] ? Verdict::Ok : Verdict::Mismatch;
    }

    void
    resolve(std::uint64_t, Record *) const override
    {
    }

    double rate() const override { return kHotRate; }

  private:
    /** Warm-up walks the key set in order; timed streams draw Zipf. */
    std::size_t
    rank(std::uint64_t stream, std::uint64_t index) const
    {
        if (stream == kStreamWarm)
            return static_cast<std::size_t>(index % kHotKeys);
        return _zipf.sample(Rng(_seed, stream, index).uniform());
    }

    std::uint64_t _seed;
    Zipf _zipf;
    std::vector<std::string> _payloads;
    std::vector<std::string> _expected;
};

class ColdTraffic : public Traffic
{
  public:
    explicit ColdTraffic(std::uint64_t seed) : _seed(seed) {}

    std::string
    payload(std::uint64_t stream, std::uint64_t index) const override
    {
        return payloadFor(coldQuery(_seed, stream, index));
    }

    std::size_t warmupCount() const override { return kColdWarmup; }

    void
    inspect(std::uint64_t, const std::string &response,
            Record *rec) const override
    {
        rec->digest = digestOf(response);
        rec->verdict = Verdict::Pending;
    }

    void
    resolve(std::uint64_t stream, Record *rec) const override
    {
        if (rec->verdict != Verdict::Pending)
            return;
        // Runs on resolveAll's threads: a payload the oracle rejects is
        // a failed request, not an escaping exception.
        try {
            std::string expected =
                oracleResponse(payload(stream, rec->index));
            rec->verdict = digestOf(expected) == rec->digest
                               ? Verdict::Ok
                               : Verdict::Mismatch;
        } catch (const std::exception &) {
            rec->verdict = Verdict::Mismatch;
        }
    }

    double rate() const override { return kColdRate; }

  private:
    std::uint64_t _seed;
};

} // namespace

std::string
oracleResponse(const std::string &payload)
{
    hcm::svc::RequestParse parsed =
        hcm::svc::parseQueryRequestText(payload);
    if (!parsed.ok)
        throw std::runtime_error("benchmark payload rejected: " +
                                 parsed.error);
    return hcm::svc::evaluateQuery(parsed.query).toJson();
}

std::unique_ptr<Traffic>
makeHotTraffic(std::uint64_t seed)
{
    return std::make_unique<HotTraffic>(seed);
}

std::unique_ptr<Traffic>
makeColdTraffic(std::uint64_t seed)
{
    return std::make_unique<ColdTraffic>(seed);
}

void
configureServeProcess()
{
    hcm::setLogThreshold(hcm::LogLevel::Warn);
    hcm::svc::FlightRecorder::instance().configure(256);
    hcm::obs::registerBuildInfoMetric(hcm::obs::globalRegistry());
    hcm::obs::registerProcessMetrics(hcm::obs::globalRegistry());
}

struct Tier::Impl
{
    std::vector<std::unique_ptr<hcm::svc::QueryEngine>> engines;
    std::unique_ptr<hcm::net::FrontDoor> front;
    /** Last: stopped and destroyed before the handler it calls. */
    std::unique_ptr<hcm::net::TcpServer> server;
};

Tier::Tier() : _impl(std::make_unique<Impl>())
{
    // The `hcm serve --port 0 --shards 2 --threads 1` tier, option for
    // option: labeled single-thread engines, the default cache, a front
    // door that scrapes its shards once a second.
    std::vector<std::unique_ptr<hcm::net::ShardBackend>> backends;
    for (std::size_t s = 0; s < 2; ++s) {
        hcm::svc::EngineOptions eopts;
        eopts.threads = 1;
        eopts.shardLabel = std::to_string(s);
        _impl->engines.push_back(
            std::make_unique<hcm::svc::QueryEngine>(eopts));
        backends.push_back(std::make_unique<hcm::net::LocalShardBackend>(
            "shard-" + std::to_string(s), *_impl->engines.back()));
    }
    hcm::net::FrontDoorOptions fopts;
    fopts.scrapeIntervalMs = 1000;
    _impl->front =
        std::make_unique<hcm::net::FrontDoor>(std::move(backends), fopts);
    hcm::net::FrontDoor *front = _impl->front.get();
    _impl->server = std::make_unique<hcm::net::TcpServer>(
        hcm::net::TcpServerOptions{},
        [front](const std::string &request) {
            return front->handle(request);
        });
    std::string error;
    if (!_impl->server->start(&error))
        throw std::runtime_error("tier failed to start: " + error);
}

Tier::~Tier() = default;

std::uint16_t
Tier::port() const
{
    return _impl->server->port();
}

Connection::Connection(std::uint16_t port)
{
    _sock = hcm::net::connectTo("127.0.0.1", port, kIoTimeoutMs, nullptr);
    if (!_sock.valid())
        return;
    int one = 1;
    ::setsockopt(_sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // A tier that stops answering fails the run instead of hanging it.
    if (!_sock.setIoTimeoutMs(kIoTimeoutMs, nullptr))
        _sock.close();
}

bool
Connection::send(const std::string &payload)
{
    std::string frame = hcm::net::encodeFrame(payload);
    return _sock.valid() && _sock.sendAll(frame.data(), frame.size(), nullptr);
}

bool
Connection::receive(std::string *payload)
{
    char chunk[64 * 1024];
    while (!_decoder.next(payload)) {
        if (!_sock.valid() || _decoder.failed())
            return false;
        // Acknowledge what arrives at once. A delayed ACK would ride on
        // this connection's next request, and until then the server's
        // Nagle algorithm can hold the tail of the answer, so latency
        // would track the send schedule instead of the tier. The kernel
        // clears the flag again, so it is re-armed before every read.
        int one = 1;
        ::setsockopt(_sock.fd(), IPPROTO_TCP, TCP_QUICKACK, &one,
                     sizeof(one));
        long n = _sock.recvSome(chunk, sizeof(chunk), nullptr);
        if (n <= 0)
            return false;
        _decoder.feed(chunk, static_cast<std::size_t>(n));
    }
    return true;
}

OpenLoopResult
runOpenLoop(const Traffic &traffic,
            std::vector<std::unique_ptr<Connection>> &conns, double seconds)
{
    Schedule schedule(traffic.rate(), seconds);
    OpenLoopResult out;
    out.latencyMs.assign(schedule.count, kInf);
    out.lateMs.assign(schedule.count, kInf);
    out.records.resize(schedule.count);
    for (std::uint64_t i = 0; i < schedule.count; ++i)
        out.records[i].index = i;

    // Threads start before the schedule does, so none is late at i = 0.
    Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
    auto due = [&](std::uint64_t i) {
        return start + std::chrono::nanoseconds(schedule.dueNs(i));
    };
    std::size_t n = conns.size();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < n; ++c) {
        Connection &conn = *conns[c];
        threads.emplace_back([&, c] {
            // Sleep to the exact due time rather than the default 50 us
            // timer slack, so lateness measures the generator, not the
            // kernel's wake-up batching.
            ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
            std::string payload = traffic.payload(kStreamOpen, c);
            for (std::uint64_t i = c; i < schedule.count; i += n) {
                std::this_thread::sleep_until(due(i));
                out.lateMs[i] = msBetween(due(i), Clock::now());
                if (!conn.send(payload))
                    break;
                if (i + n < schedule.count)
                    payload = traffic.payload(kStreamOpen, i + n);
            }
        });
        threads.emplace_back([&, c] {
            std::string response;
            for (std::uint64_t i = c; i < schedule.count; i += n) {
                if (!conn.receive(&response))
                    break;
                out.latencyMs[i] = msBetween(due(i), Clock::now());
                traffic.inspect(kStreamOpen, response, &out.records[i]);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return out;
}

ClosedLoopResult
runClosedLoop(const Traffic &traffic,
              std::vector<std::unique_ptr<Connection>> &conns,
              double seconds)
{
    // One thread per connection keeps kClosedWindow requests in flight:
    // each answer is followed at once by the next request, so the tier,
    // not the round trip, sets the pace.
    struct Lane
    {
        std::uint64_t sent = 0;
        std::uint64_t ok = 0;
        std::vector<Record> unsettled;
        Clock::time_point last;
    };
    Clock::time_point start = Clock::now();
    Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::size_t n = conns.size();
    std::vector<Lane> lanes(n);

    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < n; ++c) {
        lanes[c].last = start;
        threads.emplace_back([&, c] {
            Lane &lane = lanes[c];
            Connection &conn = *conns[c];
            auto sendNext = [&] {
                if (!conn.send(traffic.payload(kStreamClosed,
                                               c + lane.sent * n)))
                    return false;
                ++lane.sent;
                return true;
            };
            while (lane.sent < kClosedWindow && sendNext()) {
            }
            std::string response;
            // What never comes back stays counted in `sent` only.
            for (std::uint64_t received = 0; received < lane.sent;
                 ++received) {
                if (!conn.receive(&response))
                    break;
                lane.last = Clock::now();
                Record rec;
                rec.index = c + received * n;
                traffic.inspect(kStreamClosed, response, &rec);
                if (rec.verdict == Verdict::Ok)
                    ++lane.ok;
                else
                    lane.unsettled.push_back(rec);
                if (lane.last < stop)
                    sendNext();
            }
        });
    }

    for (std::thread &t : threads)
        t.join();
    ClosedLoopResult out;
    Clock::time_point last = start;
    for (Lane &lane : lanes) {
        last = std::max(last, lane.last);
        out.sent += lane.sent;
        out.settledOk += lane.ok;
        out.records.insert(out.records.end(), lane.unsettled.begin(),
                           lane.unsettled.end());
    }
    out.seconds = std::chrono::duration<double>(last - start).count();
    return out;
}

void
resolveAll(const Traffic &traffic, std::uint64_t stream,
           std::vector<Record> &records, std::size_t threads)
{
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        while (true) {
            std::size_t i = next.fetch_add(64);
            if (i >= records.size())
                return;
            std::size_t end = std::min(records.size(), i + 64);
            for (; i < end; ++i)
                traffic.resolve(stream, &records[i]);
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 1; t < std::max<std::size_t>(threads, 1); ++t)
        pool.emplace_back(work);
    work();
    for (std::thread &t : pool)
        t.join();
}

ServeRig
setUpServe(const Traffic &traffic, int repeats)
{
    ServeRig rig;
    for (int r = 0; r < repeats; ++r) {
        rig.conns.clear();
        rig.tier.reset();
        Clock::time_point t0 = Clock::now();
        rig.tier = std::make_unique<Tier>();
        for (std::size_t c = 0; c < kConnections; ++c)
            rig.conns.push_back(
                std::make_unique<Connection>(rig.tier->port()));
        std::vector<std::string> responses(traffic.warmupCount());
        std::vector<Record> records(traffic.warmupCount());
        // One request at a time: in a burst, the order in which client
        // and tier threads run is left to the scheduler, and set-up time
        // jumps between two levels from one process to the next.
        Connection &conn = *rig.conns.front();
        for (std::size_t i = 0; i < records.size(); ++i) {
            records[i].index = i;
            if (!conn.send(traffic.payload(kStreamWarm, i)) ||
                !conn.receive(&responses[i]))
                break;
            records[i].verdict = Verdict::Pending;
        }
        rig.setupSeconds.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
        for (std::size_t i = 0; i < records.size(); ++i)
            if (records[i].verdict == Verdict::Pending)
                traffic.inspect(kStreamWarm, responses[i], &records[i]);
        resolveAll(traffic, kStreamWarm, records, 1);
        rig.warmupRecords.insert(rig.warmupRecords.end(),
                                     records.begin(), records.end());
    }
    for (const auto &conn : rig.conns)
        if (!conn->ok())
            throw std::runtime_error("cannot connect to the tier");
    return rig;
}

} // namespace perfbench
