#include "server.hh"

#include <array>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "svc/request.hh"
#include "util/logging.hh"

namespace hcm {
namespace net {
namespace {

struct NetMetrics
{
    obs::Counter &connections;
    obs::Counter &frames;
    obs::Gauge &liveConnections;

    NetMetrics()
        : connections(obs::globalRegistry().counter(
              "hcm_net_connections_total")),
          frames(obs::globalRegistry().counter("hcm_net_frames_total")),
          liveConnections(obs::globalRegistry().gauge(
              "hcm_net_live_connections"))
    {
    }
};

NetMetrics &
netMetrics()
{
    static NetMetrics metrics;
    return metrics;
}

/** @p payload as one frame, header and payload in one send. */
bool
sendFrame(const Socket &sock, const std::string &payload,
          std::string *error)
{
    std::array<char, kFrameHeaderBytes> header = frameHeader(payload.size());
    return sock.sendAll(header.data(), header.size(), payload.data(),
                        payload.size(), error);
}

} // namespace

TcpServer::TcpServer(TcpServerOptions opts, Handler handler)
    : _opts(std::move(opts)), _handler(std::move(handler))
{
    hcm_assert(_handler, "TcpServer needs a handler");
}

TcpServer::~TcpServer()
{
    stop();
}

bool
TcpServer::start(std::string *error)
{
    auto [listener, port] = listenOn(_opts.host, _opts.port, error);
    if (!listener.valid())
        return false;
    _listener = std::move(listener);
    _port = port;
    _started = true;
    _acceptThread = std::thread([this] { acceptLoop(); });
    hcm_inform("net server listening", logField("host", _opts.host),
               logField("port", _port));
    return true;
}

void
TcpServer::stop()
{
    {
        std::lock_guard<std::mutex> lock(_mu);
        if (_stopping)
            return;
        _stopping = true;
        // Wake every connection thread blocked in recv; the threads
        // see EOF/error and wind down on their own.
        for (auto &conn : _connections)
            conn->sock.shutdownBoth();
    }
    // Shutting the listener down makes the blocked accept() fail,
    // ending the accept loop. Close it only once that thread is gone:
    // close() rewrites the fd that acceptOn() is still reading.
    _listener.shutdownBoth();
    if (_acceptThread.joinable())
        _acceptThread.join();
    _listener.close();
    std::vector<std::unique_ptr<Connection>> connections;
    std::vector<std::thread> finished;
    {
        std::lock_guard<std::mutex> lock(_mu);
        connections.swap(_connections);
        finished.swap(_finished);
    }
    for (auto &conn : connections)
        if (conn->thread.joinable())
            conn->thread.join();
    for (std::thread &t : finished)
        if (t.joinable())
            t.join();
}

void
TcpServer::reapFinishedLocked()
{
    for (std::thread &t : _finished)
        if (t.joinable())
            t.join(); // the thread has already left connectionLoop
    _finished.clear();
}

void
TcpServer::acceptLoop()
{
    while (true) {
        std::string error;
        Socket sock = acceptOn(_listener, &error);
        if (!sock.valid())
            return; // listener closed (stop()) or unrecoverable
        obs::Span span("net.accept", "net");
        netMetrics().connections.add(1);
        auto conn = std::make_unique<Connection>();
        conn->sock = std::move(sock);
        Connection *raw = conn.get();
        std::lock_guard<std::mutex> lock(_mu);
        if (_stopping)
            return; // raced with stop(): drop the fresh connection
        reapFinishedLocked();
        conn->thread = std::thread([this, raw] { connectionLoop(raw); });
        _connections.push_back(std::move(conn));
    }
}

void
TcpServer::connectionLoop(Connection *conn)
{
    netMetrics().liveConnections.add(1);
    FrameDecoder decoder(_opts.maxFrameBytes);
    char buf[64 * 1024];
    bool open = true;
    while (open) {
        long n = conn->sock.recvSome(buf, sizeof(buf), nullptr);
        if (n <= 0)
            break; // peer closed, stop() shut us down, or error
        decoder.feed(buf, static_cast<std::size_t>(n));
        std::string payload;
        while (decoder.next(&payload)) {
            obs::Span span("net.frame", "net");
            netMetrics().frames.add(1);
            std::string response = _handler(payload);
            std::string error;
            if (!sendFrame(conn->sock, response, &error)) {
                hcm_debug("net response send failed",
                          logField("error", error));
                open = false;
                break;
            }
        }
        if (decoder.failed()) {
            // Oversized frame: answer one structured error, then
            // drop the connection — the stream can't be resynced.
            sendFrame(conn->sock, svc::errorBody(decoder.error()),
                      nullptr);
            hcm_warn("net frame rejected",
                     logField("error", decoder.error()));
            break;
        }
    }
    netMetrics().liveConnections.add(-1);
    // Close under _mu: stop() shuts down every listed socket under it,
    // and close() rewrites the fd that shutdownBoth() reads. Then hand
    // the thread handle to the reap list: a thread cannot join itself,
    // so the accept loop (or stop()) joins it later.
    std::lock_guard<std::mutex> lock(_mu);
    conn->sock.close();
    for (auto it = _connections.begin(); it != _connections.end(); ++it) {
        if (it->get() == conn) {
            _finished.push_back(std::move((*it)->thread));
            _connections.erase(it);
            break;
        }
    }
}

} // namespace net
} // namespace hcm
