#include "socket.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

namespace hcm {
namespace net {
namespace {

std::string
errnoMessage(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

/**
 * Send each frame as soon as it is written. With Nagle's algorithm a
 * response written while the previous one is still unacknowledged
 * waits for that ACK, which the peer may delay by tens of ms — on a
 * pipelined connection that stalls the next answer. Best effort: a
 * socket that refuses still works, only slower.
 */
void
setNoDelay(const Socket &sock)
{
    int one = 1;
    ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/** Parse a dotted-quad host into @p addr (no DNS: loopback tier). */
bool
makeAddress(const std::string &host, std::uint16_t port,
            sockaddr_in *addr, std::string *error)
{
    std::memset(addr, 0, sizeof(*addr));
    addr->sin_family = AF_INET;
    addr->sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
        if (error)
            *error = "bad IPv4 address '" + host + "'";
        return false;
    }
    return true;
}

} // namespace

void
Socket::close()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
}

void
Socket::shutdownBoth()
{
    if (_fd >= 0)
        ::shutdown(_fd, SHUT_RDWR);
}

bool
Socket::sendAll(const void *data, std::size_t len,
                std::string *error) const
{
    return sendAll(data, len, nullptr, 0, error);
}

bool
Socket::sendAll(const void *head, std::size_t head_len, const void *body,
                std::size_t body_len, std::string *error) const
{
    iovec iov[2] = {{const_cast<void *>(head), head_len},
                    {const_cast<void *>(body), body_len}};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = 2;
    while (iov[0].iov_len + iov[1].iov_len > 0) {
        // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not
        // kill the process with SIGPIPE.
        ssize_t n = ::sendmsg(_fd, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (error)
                *error = errnoMessage("send");
            return false;
        }
        // Resume after the bytes sent, which may end inside either
        // buffer.
        auto sent = static_cast<std::size_t>(n);
        for (iovec &v : iov) {
            std::size_t used = std::min(sent, v.iov_len);
            v.iov_base = static_cast<char *>(v.iov_base) + used;
            v.iov_len -= used;
            sent -= used;
        }
    }
    return true;
}

long
Socket::recvSome(void *data, std::size_t len, std::string *error) const
{
    while (true) {
        ssize_t n = ::recv(_fd, data, len, 0);
        if (n >= 0)
            return static_cast<long>(n);
        if (errno == EINTR)
            continue;
        if (error)
            *error = (errno == EAGAIN || errno == EWOULDBLOCK)
                         ? "receive timed out"
                         : errnoMessage("recv");
        return -1;
    }
}

bool
Socket::setIoTimeoutMs(std::uint64_t ms, std::string *error) const
{
    timeval tv;
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    if (::setsockopt(_fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) <
            0 ||
        ::setsockopt(_fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) <
            0) {
        if (error)
            *error = errnoMessage("setsockopt(timeout)");
        return false;
    }
    return true;
}

std::pair<Socket, std::uint16_t>
listenOn(const std::string &host, std::uint16_t port, std::string *error)
{
    sockaddr_in addr;
    if (!makeAddress(host, port, &addr, error))
        return {Socket(), 0};
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid()) {
        if (error)
            *error = errnoMessage("socket");
        return {Socket(), 0};
    }
    int one = 1;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    if (::bind(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        if (error)
            *error = errnoMessage("bind");
        return {Socket(), 0};
    }
    if (::listen(sock.fd(), 128) < 0) {
        if (error)
            *error = errnoMessage("listen");
        return {Socket(), 0};
    }
    // Report the actually-bound port so tests can listen on port 0.
    sockaddr_in bound;
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) < 0) {
        if (error)
            *error = errnoMessage("getsockname");
        return {Socket(), 0};
    }
    return {std::move(sock), ntohs(bound.sin_port)};
}

Socket
acceptOn(const Socket &listener, std::string *error)
{
    while (true) {
        int fd = ::accept(listener.fd(), nullptr, nullptr);
        if (fd >= 0) {
            Socket sock(fd);
            setNoDelay(sock);
            return sock;
        }
        if (errno == EINTR)
            continue;
        if (error)
            *error = errnoMessage("accept");
        return Socket();
    }
}

Socket
connectTo(const std::string &host, std::uint16_t port,
          std::uint64_t timeout_ms, std::string *error)
{
    sockaddr_in addr;
    if (!makeAddress(host, port, &addr, error))
        return Socket();
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid()) {
        if (error)
            *error = errnoMessage("socket");
        return Socket();
    }
    if (timeout_ms == 0) {
        if (::connect(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) < 0) {
            if (error)
                *error = errnoMessage("connect");
            return Socket();
        }
        setNoDelay(sock);
        return sock;
    }
    // Bounded connect: non-blocking connect + poll for writability.
    int flags = ::fcntl(sock.fd(), F_GETFL, 0);
    ::fcntl(sock.fd(), F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    if (rc < 0 && errno != EINPROGRESS) {
        if (error)
            *error = errnoMessage("connect");
        return Socket();
    }
    if (rc < 0) {
        pollfd pfd{sock.fd(), POLLOUT, 0};
        int ready = ::poll(&pfd, 1,
                           static_cast<int>(std::min<std::uint64_t>(
                               timeout_ms, INT_MAX)));
        if (ready <= 0) {
            if (error)
                *error = ready == 0 ? "connect timed out"
                                    : errnoMessage("poll");
            return Socket();
        }
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &so_error,
                         &len) < 0 ||
            so_error != 0) {
            if (error)
                *error = std::string("connect: ") +
                         std::strerror(so_error != 0 ? so_error
                                                     : errno);
            return Socket();
        }
    }
    ::fcntl(sock.fd(), F_SETFL, flags);
    setNoDelay(sock);
    return sock;
}

} // namespace net
} // namespace hcm
