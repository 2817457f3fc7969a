/**
 * @file
 * Length-prefixed framing over the existing JSON wire format. One
 * frame is a 4-byte big-endian payload length followed by that many
 * payload bytes; the payload is exactly one request or response
 * document from the svc wire format (so the TCP transport carries the
 * same JSON the stdin line protocol does, just delimited by lengths
 * instead of newlines — payloads may therefore contain newlines, e.g.
 * a Prometheus metrics block).
 *
 * FrameDecoder is a push parser: feed() it whatever the socket
 * produced — a split read, several coalesced frames, a partial
 * trailing frame — and next() pops completed payloads in order.
 * A declared length beyond the configured maximum poisons the decoder
 * with a structured error (the transport answers it and drops the
 * connection); it never allocates the bogus length or crashes.
 */

#ifndef HCM_NET_FRAMING_HH
#define HCM_NET_FRAMING_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace hcm {
namespace net {

/** Default cap on one frame's payload (16 MiB). */
constexpr std::uint32_t kDefaultMaxFrameBytes = 16u << 20;

/** Wire size of the length prefix. */
constexpr std::size_t kFrameHeaderBytes = 4;

/** The length prefix of a frame of @p payload_bytes (big-endian). */
std::array<char, kFrameHeaderBytes> frameHeader(std::size_t payload_bytes);

/** @p payload as one wire frame (big-endian length + bytes). */
std::string encodeFrame(const std::string &payload);

/** Incremental decoder of a frame stream (one per connection). */
class FrameDecoder
{
  public:
    explicit FrameDecoder(std::uint32_t max_frame_bytes =
                              kDefaultMaxFrameBytes)
        : _maxFrameBytes(max_frame_bytes)
    {
    }

    /** Append @p len raw stream bytes (ignored once failed()). */
    void feed(const char *data, std::size_t len);

    void
    feed(const std::string &data)
    {
        feed(data.data(), data.size());
    }

    /**
     * Pop the next completed payload into @p payload. False when no
     * complete frame is buffered (or the decoder failed); zero-length
     * payloads are valid frames and yield an empty string.
     */
    bool next(std::string *payload);

    /** True once an oversized length poisoned the stream. */
    bool failed() const { return _failed; }

    /** Why the decoder failed ("" while healthy). */
    const std::string &error() const { return _error; }

    /** Bytes buffered but not yet returned (partial trailing frame). */
    std::size_t bufferedBytes() const { return _buffer.size() - _read; }

  private:
    std::uint32_t _maxFrameBytes;
    /**
     * Bytes fed so far; those before #_read were already returned.
     * next() only advances the offset and feed() compacts once, so
     * popping n coalesced frames costs O(bytes), not O(n x bytes).
     */
    std::string _buffer;
    std::size_t _read = 0;
    bool _failed = false;
    std::string _error;
};

} // namespace net
} // namespace hcm

#endif // HCM_NET_FRAMING_HH
