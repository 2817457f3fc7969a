#include "json.hh"

#include <charconv>
#include <cmath>

#include "logging.hh"

namespace hcm {
namespace {

/** Append @p s to @p out with JSON escapes, copying plain runs whole. */
void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::size_t run = 0; // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(s[i]);
        const char *esc = nullptr;
        switch (c) {
          case '"':
            esc = "\\\"";
            break;
          case '\\':
            esc = "\\\\";
            break;
          case '\n':
            esc = "\\n";
            break;
          case '\r':
            esc = "\\r";
            break;
          case '\t':
            esc = "\\t";
            break;
          default:
            if (c >= 0x20)
                continue;
        }
        out.append(s.data() + run, i - run);
        if (esc) {
            out += esc;
        } else {
            const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                 kHex[c & 0xf]};
            out.append(code, sizeof(code));
        }
        run = i + 1;
    }
    out.append(s.data() + run, s.size() - run);
}

} // namespace

JsonWriter::JsonWriter(std::string &out) : _out(out)
{
}

JsonWriter::JsonWriter(std::ostream &out) : _out(_buffer), _stream(&out)
{
}

JsonWriter::~JsonWriter()
{
    flush();
    hcm_assert(_stack.empty(), "JSON writer destroyed with ",
               _stack.size(), " open scope(s)");
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

void
JsonWriter::flush()
{
    if (!_stream || _buffer.empty())
        return;
    _stream->write(_buffer.data(),
                   static_cast<std::streamsize>(_buffer.size()));
    _buffer.clear();
}

void
JsonWriter::beforeValue()
{
    if (_stack.empty()) {
        hcm_assert(!_rootWritten, "JSON document has a single root");
        _rootWritten = true;
        return;
    }
    if (_stack.back() == Scope::Object) {
        hcm_assert(_keyPending, "object members need a key first");
        _keyPending = false;
        return;
    }
    if (_hasElement.back())
        _out += ',';
    _hasElement.back() = true;
}

void
JsonWriter::afterValue()
{
    if (_stream && (_stack.empty() || _buffer.size() >= kFlushBytes))
        flush();
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    hcm_assert(!_stack.empty() && _stack.back() == Scope::Object,
               "key() outside an object");
    hcm_assert(!_keyPending, "two keys in a row");
    if (_hasElement.back())
        _out += ',';
    _hasElement.back() = true;
    _out += '"';
    appendEscaped(_out, name);
    _out += "\":";
    _keyPending = true;
    return *this;
}

void
JsonWriter::open(Scope scope, char c)
{
    beforeValue();
    _stack.push_back(scope);
    _hasElement.push_back(false);
    _out += c;
}

void
JsonWriter::close(Scope scope, char c)
{
    hcm_assert(!_stack.empty() && _stack.back() == scope,
               "mismatched JSON scope close");
    hcm_assert(!_keyPending, "dangling key at scope close");
    _stack.pop_back();
    _hasElement.pop_back();
    _out += c;
    afterValue();
}

JsonWriter &
JsonWriter::beginObject()
{
    open(Scope::Object, '{');
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    close(Scope::Object, '}');
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    open(Scope::Array, '[');
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    close(Scope::Array, ']');
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    beforeValue();
    if (std::isfinite(v)) {
        // The standard defines to_chars(general, precision) as printf
        // "%.*g" in the "C" locale, so these are "%.12g"'s bytes
        // without snprintf's format parsing and locale lookup.
        char buf[32];
        auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::general, 12);
        hcm_assert(ec == std::errc(), "to_chars overflowed ", v);
        _out.append(buf, end);
    } else {
        _out += "null"; // JSON has no inf/nan
    }
    afterValue();
    return *this;
}

JsonWriter &
JsonWriter::value(long long v)
{
    beforeValue();
    char buf[24];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    hcm_assert(ec == std::errc(), "to_chars overflowed ", v);
    _out.append(buf, end);
    afterValue();
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    beforeValue();
    _out += v ? "true" : "false";
    afterValue();
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    beforeValue();
    _out += '"';
    appendEscaped(_out, v);
    _out += '"';
    afterValue();
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    beforeValue();
    _out += "null";
    afterValue();
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view fragment)
{
    beforeValue();
    _out += fragment;
    afterValue();
    return *this;
}

} // namespace hcm
