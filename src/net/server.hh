/**
 * @file
 * The TCP front end: accepts loopback connections and runs the framed
 * request/response protocol over them — one request payload per frame
 * in, one response payload per frame out, in order, per connection.
 * What a payload *means* is the handler's business (a RequestRouter
 * for a shard, a FrontDoor for the routing tier), so the same server
 * carries both roles.
 *
 * Threading: one accept thread plus one thread per live connection
 * (the concurrency story inside a shard is the engine's worker pool;
 * connection threads mostly block on I/O, or run one query's
 * evaluation when the engine has a free worker slot). stop() shuts
 * the listener down, half-closes every live connection and joins
 * every thread, so no thread outlives the server — tests and the CLI
 * both rely on that join.
 *
 * Instrumented from day one: spans net.accept / net.frame, counters
 * hcm_net_connections_total / hcm_net_frames_total, plus a live
 * connection gauge. A frame that overflows the decoder limit answers
 * one structured error frame and drops the connection.
 */

#ifndef HCM_NET_SERVER_HH
#define HCM_NET_SERVER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/framing.hh"
#include "net/socket.hh"

namespace hcm {
namespace net {

/** Server sizing/identity knobs. */
struct TcpServerOptions
{
    std::string host = "127.0.0.1";
    /** 0 binds an ephemeral port; port() reports the real one. */
    std::uint16_t port = 0;
    std::uint32_t maxFrameBytes = kDefaultMaxFrameBytes;
};

/** Framed TCP request/response server over one payload handler. */
class TcpServer
{
  public:
    /** Maps one request payload to one response payload. */
    using Handler = std::function<std::string(const std::string &)>;

    TcpServer(TcpServerOptions opts, Handler handler);

    /** stop(). */
    ~TcpServer();

    TcpServer(const TcpServer &) = delete;
    TcpServer &operator=(const TcpServer &) = delete;

    /**
     * Bind, listen, and spawn the accept thread. False with @p error
     * set when the address is unusable (port taken, bad host).
     */
    bool start(std::string *error);

    /** The bound port (valid after start(); echoes an ephemeral 0). */
    std::uint16_t port() const { return _port; }

    /**
     * Close the listener, half-close live connections, join every
     * thread. Idempotent; in-flight handler calls finish first.
     */
    void stop();

  private:
    struct Connection
    {
        Socket sock;
        std::thread thread;
    };

    void acceptLoop();
    void connectionLoop(Connection *conn);

    /** Drop finished connection slots (called with _mu held). */
    void reapFinishedLocked();

    TcpServerOptions _opts;
    Handler _handler;
    Socket _listener;
    std::uint16_t _port = 0;
    std::thread _acceptThread;

    std::mutex _mu;
    std::vector<std::unique_ptr<Connection>> _connections;
    std::vector<std::thread> _finished; ///< joinable, connection done
    bool _stopping = false;
    bool _started = false;
};

} // namespace net
} // namespace hcm

#endif // HCM_NET_SERVER_HH
