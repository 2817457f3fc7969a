#include "json.hh"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "logging.hh"

namespace hcm {

void
detail::appendJsonEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::size_t run = 0; // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(s[i]);
        if (!kJsonEscapes.escape[c])
            continue;
        out.append(s.data() + run, i - run);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default: {
            const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                 kHex[c & 0xf]};
            out.append(code, sizeof(code));
          }
        }
        run = i + 1;
    }
    out.append(s.data() + run, s.size() - run);
}

JsonWriter::JsonWriter(std::string &out) : _out(out), _len(out.size())
{
}

JsonWriter::JsonWriter(std::ostream &out)
    : _out(_buffer), _len(0), _stream(&out)
{
}

JsonWriter::~JsonWriter()
{
    if (_stream)
        flush();
    hcm_assert(_depth == 0, "JSON writer destroyed with ", _depth,
               " open scope(s)");
}

void
JsonWriter::misuse(const char *why) const
{
    hcm_panic("JSON writer misuse: ", why, " (", _depth,
              " open scope(s))");
}

void
JsonWriter::grow(std::size_t n)
{
    // Whatever the caller reserved, then doubling: amortized O(1) per
    // byte, like appends. The new bytes are reserved, not output.
    _out.resize(std::max({_out.capacity(), 2 * _out.size(),
                          _len + n + 256}));
}

void
JsonWriter::flush()
{
    if (!_stream) {
        _out.resize(_len); // the document is whole: drop the reserve
        return;
    }
    _stream->write(_out.data(), static_cast<std::streamsize>(_len));
    _len = 0;
}

char *
JsonWriter::putEscaped(std::string_view s, char *p)
{
    commit(p);
    std::string escaped;
    detail::appendJsonEscaped(escaped, s);
    p = room(escaped.size() + 3);
    *p++ = '"';
    std::memcpy(p, escaped.data(), escaped.size());
    p += escaped.size();
    *p++ = '"';
    return p;
}

JsonWriter &
JsonWriter::value(long long v)
{
    char *p = beforeValue(room(25));
    auto [end, ec] = std::to_chars(p, p + 24, v);
    if (ec != std::errc())
        misuse("to_chars overflowed");
    commit(end);
    afterValue();
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    char *p = beforeValue(room(5));
    std::memcpy(p, "null", 4);
    commit(p + 4);
    afterValue();
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view fragment)
{
    char *p = beforeValue(room(fragment.size() + 1));
    std::memcpy(p, fragment.data(), fragment.size());
    commit(p + fragment.size());
    afterValue();
    return *this;
}

} // namespace hcm
