/**
 * @file
 * Thin RAII layer over POSIX TCP sockets — just enough for the net
 * subsystem's loopback serving tier: bind/listen/accept, connect with
 * a deadline, full-buffer send, and receive with an optional timeout.
 * Every operation reports failure through a return value plus an
 * errno-derived message instead of throwing; the serving tier's
 * degraded-mode guarantees ("a lost shard yields a structured error,
 * never a hang") rest on the timeouts set here.
 */

#ifndef HCM_NET_SOCKET_HH
#define HCM_NET_SOCKET_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace hcm {
namespace net {

/** Owns one socket file descriptor (-1 = empty). */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : _fd(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&other) noexcept : _fd(other.release()) {}
    Socket &
    operator=(Socket &&other) noexcept
    {
        if (this != &other) {
            close();
            _fd = other.release();
        }
        return *this;
    }

    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    bool valid() const { return _fd >= 0; }
    int fd() const { return _fd; }

    /** Give up ownership without closing. */
    int
    release()
    {
        int fd = _fd;
        _fd = -1;
        return fd;
    }

    /** Close the descriptor (idempotent). */
    void close();

    /**
     * Half-close both directions without releasing the descriptor —
     * wakes a thread blocked in recv() on this socket, which is how
     * the server interrupts its connection threads at shutdown.
     */
    void shutdownBoth();

    /**
     * Send all @p len bytes (restarting on short writes / EINTR).
     * False with @p error set when the peer vanished first.
     */
    bool sendAll(const void *data, std::size_t len,
                 std::string *error) const;

    /**
     * Send all @p head_len bytes of @p head, then all @p body_len of
     * @p body, as one stream: each sendmsg() offers what is left of
     * both, so a frame header and its payload leave together without
     * being copied into one buffer first.
     */
    bool sendAll(const void *head, std::size_t head_len, const void *body,
                 std::size_t body_len, std::string *error) const;

    /**
     * Receive up to @p len bytes; returns the count, 0 on orderly
     * close, -1 on error/timeout with @p error set.
     */
    long recvSome(void *data, std::size_t len, std::string *error) const;

    /**
     * Bound how long recvSome()/sendAll() may block (0 disables the
     * bound). The degraded-mode story depends on this: a front door
     * or load generator talking to a dead-but-connected shard gets a
     * timeout error, not a hang.
     */
    bool setIoTimeoutMs(std::uint64_t ms, std::string *error) const;

  private:
    int _fd = -1;
};

/**
 * Bind and listen on @p host:@p port (port 0 picks an ephemeral one).
 * Returns the listening socket plus the actually-bound port, or an
 * invalid socket with @p error set.
 */
std::pair<Socket, std::uint16_t> listenOn(const std::string &host,
                                          std::uint16_t port,
                                          std::string *error);

/**
 * Accept one connection, with TCP_NODELAY set; invalid socket +
 * @p error on failure.
 */
Socket acceptOn(const Socket &listener, std::string *error);

/**
 * Connect to @p host:@p port, waiting at most @p timeout_ms (0 = the
 * OS default), with TCP_NODELAY set. Invalid socket + @p error on
 * failure.
 */
Socket connectTo(const std::string &host, std::uint16_t port,
                 std::uint64_t timeout_ms, std::string *error);

} // namespace net
} // namespace hcm

#endif // HCM_NET_SOCKET_HH
