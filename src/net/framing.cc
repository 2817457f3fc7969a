#include "framing.hh"

#include "util/logging.hh"

namespace hcm {
namespace net {

std::array<char, kFrameHeaderBytes>
frameHeader(std::size_t payload_bytes)
{
    hcm_assert(payload_bytes <= UINT32_MAX, "frame payload too large");
    auto len = static_cast<std::uint32_t>(payload_bytes);
    return {static_cast<char>((len >> 24) & 0xff),
            static_cast<char>((len >> 16) & 0xff),
            static_cast<char>((len >> 8) & 0xff),
            static_cast<char>(len & 0xff)};
}

std::string
encodeFrame(const std::string &payload)
{
    std::array<char, kFrameHeaderBytes> header = frameHeader(payload.size());
    std::string frame;
    frame.reserve(kFrameHeaderBytes + payload.size());
    frame.append(header.data(), header.size());
    frame += payload;
    return frame;
}

void
FrameDecoder::feed(const char *data, std::size_t len)
{
    if (_failed)
        return;
    _buffer.erase(0, _read);
    _read = 0;
    _buffer.append(data, len);
}

bool
FrameDecoder::next(std::string *payload)
{
    if (_failed || bufferedBytes() < kFrameHeaderBytes)
        return false;
    const unsigned char *p =
        reinterpret_cast<const unsigned char *>(_buffer.data() + _read);
    std::uint32_t len = (static_cast<std::uint32_t>(p[0]) << 24) |
                        (static_cast<std::uint32_t>(p[1]) << 16) |
                        (static_cast<std::uint32_t>(p[2]) << 8) |
                        static_cast<std::uint32_t>(p[3]);
    if (len > _maxFrameBytes) {
        // Poison, don't allocate: the declared length is untrusted
        // input, and a 4 GiB "frame" must become a structured error,
        // not an allocation.
        _failed = true;
        _error = "frame length " + std::to_string(len) +
                 " exceeds the maximum of " +
                 std::to_string(_maxFrameBytes) + " bytes";
        _buffer.clear();
        _buffer.shrink_to_fit();
        _read = 0;
        return false;
    }
    if (bufferedBytes() < kFrameHeaderBytes + len)
        return false; // partial trailing frame: wait for more bytes
    payload->assign(_buffer, _read + kFrameHeaderBytes, len);
    _read += kFrameHeaderBytes + len;
    return true;
}

} // namespace net
} // namespace hcm
