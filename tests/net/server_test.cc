#include "net/server.hh"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include "net/framing.hh"
#include "net/socket.hh"

namespace hcm {
namespace net {
namespace {

/** Round-trip one framed payload on a fresh client connection. */
std::string
roundTripOnce(std::uint16_t port, const std::string &payload,
              std::uint32_t max_frame = kDefaultMaxFrameBytes)
{
    std::string error;
    Socket sock = connectTo("127.0.0.1", port, 2000, &error);
    EXPECT_TRUE(sock.valid()) << error;
    EXPECT_TRUE(sock.setIoTimeoutMs(2000, &error)) << error;
    std::string frame = encodeFrame(payload);
    EXPECT_TRUE(sock.sendAll(frame.data(), frame.size(), &error))
        << error;
    FrameDecoder decoder(max_frame);
    char buf[4096];
    std::string response;
    while (!decoder.next(&response)) {
        EXPECT_FALSE(decoder.failed()) << decoder.error();
        long n = sock.recvSome(buf, sizeof(buf), &error);
        if (n <= 0)
            return "<closed: " + error + ">";
        decoder.feed(buf, static_cast<std::size_t>(n));
    }
    return response;
}

TEST(TcpServerTest, EchoRoundTrip)
{
    TcpServerOptions opts;
    TcpServer server(opts, [](const std::string &request) {
        return "echo:" + request;
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_NE(server.port(), 0u);
    EXPECT_EQ(roundTripOnce(server.port(), "hello"), "echo:hello");
    server.stop();
}

TEST(TcpServerTest, ManyFramesOnOneConnection)
{
    TcpServerOptions opts;
    TcpServer server(opts, [](const std::string &request) {
        return request + "!";
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    Socket sock = connectTo("127.0.0.1", server.port(), 2000, &error);
    ASSERT_TRUE(sock.valid()) << error;
    ASSERT_TRUE(sock.setIoTimeoutMs(2000, &error)) << error;
    // Coalesce several requests into one write; the server must
    // answer each in order.
    std::string stream;
    for (int i = 0; i < 10; ++i)
        stream += encodeFrame("req" + std::to_string(i));
    ASSERT_TRUE(sock.sendAll(stream.data(), stream.size(), &error))
        << error;
    FrameDecoder decoder;
    char buf[4096];
    std::string response;
    for (int i = 0; i < 10; ++i) {
        while (!decoder.next(&response)) {
            ASSERT_FALSE(decoder.failed()) << decoder.error();
            long n = sock.recvSome(buf, sizeof(buf), &error);
            ASSERT_GT(n, 0) << error;
            decoder.feed(buf, static_cast<std::size_t>(n));
        }
        EXPECT_EQ(response, "req" + std::to_string(i) + "!");
    }
    server.stop();
}

TEST(TcpServerTest, ZeroLengthPayloadRoundTrips)
{
    TcpServerOptions opts;
    TcpServer server(opts, [](const std::string &request) {
        return "len=" + std::to_string(request.size());
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    EXPECT_EQ(roundTripOnce(server.port(), ""), "len=0");
    server.stop();
}

TEST(TcpServerTest, OversizedFrameAnswersErrorAndDrops)
{
    TcpServerOptions opts;
    opts.maxFrameBytes = 64;
    TcpServer server(opts, [](const std::string &) {
        return "should never be called";
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::string big(1000, 'x');
    std::string response = roundTripOnce(server.port(), big);
    EXPECT_EQ(response.rfind("{\"error\":", 0), 0u) << response;

    // The connection is gone, but the server still accepts new ones.
    EXPECT_EQ(roundTripOnce(server.port(), std::string(10, 'y')),
              "should never be called");
    server.stop();
}

TEST(TcpServerTest, StopWithOpenConnectionDoesNotHang)
{
    TcpServerOptions opts;
    TcpServer server(opts, [](const std::string &request) {
        return request;
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    // A client that connects and then just sits there.
    Socket idle = connectTo("127.0.0.1", server.port(), 2000, &error);
    ASSERT_TRUE(idle.valid()) << error;
    server.stop(); // must shut the idle connection down, not wait on it
}

TEST(TcpServerTest, StopIsIdempotent)
{
    TcpServerOptions opts;
    TcpServer server(opts, [](const std::string &request) {
        return request;
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    server.stop();
    server.stop();
}

TEST(TcpServerTest, StartConnectStopStress)
{
    // stop() racing the accept loop and live connections: clients
    // connect, round-trip, and disconnect while the server stops. The
    // listener is closed only after the accept thread is joined, and
    // each connection socket is closed under the server's lock, so
    // this runs clean under ThreadSanitizer and never hangs.
    for (int round = 0; round < 20; ++round) {
        TcpServer server(TcpServerOptions{},
                         [](const std::string &request) {
                             return request;
                         });
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        std::uint16_t port = server.port();
        std::vector<std::thread> clients;
        for (int c = 0; c < 4; ++c)
            clients.emplace_back([port, c] {
                std::string why;
                Socket sock = connectTo("127.0.0.1", port, 2000, &why);
                if (!sock.valid() || !sock.setIoTimeoutMs(2000, &why))
                    return;
                std::string frame = encodeFrame(std::string(c + 1, 'p'));
                for (int i = 0; i < 3; ++i) {
                    if (!sock.sendAll(frame.data(), frame.size(), &why))
                        return;
                    char buf[64];
                    if (sock.recvSome(buf, sizeof(buf), &why) <= 0)
                        return; // the server stopped under us
                }
            });
        if (round % 2 == 1)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        server.stop();
        for (std::thread &t : clients)
            t.join();
    }
}

TEST(SocketTest, ConnectToClosedPortFailsWithError)
{
    // Bind-then-close to find a port that is (momentarily) not
    // listening; connect must fail fast with a reason, not hang.
    std::string error;
    auto [probe, port] = listenOn("127.0.0.1", 0, &error);
    ASSERT_TRUE(probe.valid()) << error;
    probe.close();
    Socket sock = connectTo("127.0.0.1", port, 1000, &error);
    EXPECT_FALSE(sock.valid());
    EXPECT_FALSE(error.empty());
}

bool
noDelaySet(const Socket &sock)
{
    int value = 0;
    socklen_t len = sizeof(value);
    EXPECT_EQ(::getsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &value,
                           &len),
              0);
    return value != 0;
}

TEST(SocketTest, BothEndsDisableNagle)
{
    // Both connect paths (bounded and OS-default timeout) and the
    // accepted end: a pipelined answer must not wait for a delayed ACK.
    std::string error;
    auto [listener, port] = listenOn("127.0.0.1", 0, &error);
    ASSERT_TRUE(listener.valid()) << error;
    for (std::uint64_t timeout_ms : {1000u, 0u}) {
        Socket client = connectTo("127.0.0.1", port, timeout_ms, &error);
        ASSERT_TRUE(client.valid()) << error;
        Socket server = acceptOn(listener, &error);
        ASSERT_TRUE(server.valid()) << error;
        EXPECT_TRUE(noDelaySet(client)) << "timeout " << timeout_ms;
        EXPECT_TRUE(noDelaySet(server)) << "timeout " << timeout_ms;
    }
}

TEST(SocketTest, TwoBufferSendAllResumesPartialWrites)
{
    // Small socket buffers, a send timeout and a reader that drains
    // them slowly make sendmsg() return short, inside either buffer or
    // across the boundary; every byte must still arrive, in order. The
    // reader never pauses near the timeout, so each call sends some.
    std::string error;
    auto [listener, port] = listenOn("127.0.0.1", 0, &error);
    ASSERT_TRUE(listener.valid()) << error;
    Socket sender = connectTo("127.0.0.1", port, 1000, &error);
    ASSERT_TRUE(sender.valid()) << error;
    Socket receiver = acceptOn(listener, &error);
    ASSERT_TRUE(receiver.valid()) << error;
    int sndbuf = 4096;
    int rcvbuf = 64 * 1024;
    ASSERT_EQ(::setsockopt(sender.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                           sizeof(sndbuf)),
              0);
    ASSERT_EQ(::setsockopt(receiver.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                           sizeof(rcvbuf)),
              0);
    ASSERT_TRUE(sender.setIoTimeoutMs(100, &error)) << error;
    ASSERT_TRUE(receiver.setIoTimeoutMs(5000, &error)) << error;

    std::string head(768 * 1024, '\0');
    std::string body(5 * 256 * 1024, '\0');
    std::uint32_t x = 12345;
    for (std::string *buf : {&head, &body})
        for (char &c : *buf) {
            x = x * 1664525u + 1013904223u;
            c = static_cast<char>(x >> 24);
        }

    std::string received;
    std::thread reader([&] {
        char buf[4096];
        std::string why;
        while (received.size() < head.size() + body.size()) {
            long n = receiver.recvSome(buf, sizeof(buf), &why);
            if (n <= 0)
                return;
            received.append(buf, static_cast<std::size_t>(n));
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    bool sent = sender.sendAll(head.data(), head.size(), body.data(),
                               body.size(), &error);
    if (!sent)
        receiver.shutdownBoth();
    reader.join();
    ASSERT_TRUE(sent) << error;
    ASSERT_EQ(received.size(), head.size() + body.size());
    EXPECT_TRUE(received.compare(0, head.size(), head) == 0);
    EXPECT_TRUE(received.compare(head.size(), body.size(), body) == 0);
}

TEST(TcpServerTest, MultiMiBResponseArrivesWhole)
{
    // The server sends header and payload in one sendmsg(); a response
    // far larger than the socket buffers must come back byte-exact.
    std::string big(3 << 20, 'x');
    for (std::size_t i = 0; i < big.size(); i += 4099)
        big[i] = static_cast<char>('a' + i % 26);
    TcpServerOptions opts;
    TcpServer server(opts,
                     [&](const std::string &) { return big; });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    EXPECT_TRUE(roundTripOnce(server.port(), "go") == big);
    server.stop();
}

} // namespace
} // namespace net
} // namespace hcm
