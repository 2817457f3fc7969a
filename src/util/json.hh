/**
 * @file
 * Minimal JSON writer, used to render query answers and to export
 * projection results for notebooks and external tooling. Emits compact,
 * valid JSON with correct string escaping; structural misuse (value
 * without a key inside an object, unbalanced scopes) panics rather than
 * producing silent garbage.
 *
 * Output is appended to a std::string. While a document is open the
 * writer owns the string's tail: it grows the string ahead of what it
 * has written and writes tokens straight into it, so the string's size
 * and contents settle only when the root value closes. A writer built
 * over a std::ostream renders into its own buffer and writes it out
 * when the root value closes, whenever the buffer passes kFlushBytes,
 * and in the destructor — so large exports stream with bounded memory,
 * and the stream sees nothing of a document until one of those points.
 * Callers may write to the same string or stream between documents,
 * not inside one.
 */

#ifndef HCM_UTIL_JSON_HH
#define HCM_UTIL_JSON_HH

#include <cmath>
#include <cstddef>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>

#include "util/format.hh"

namespace hcm {

/** Compact JSON emitter over a string or a buffered stream. */
class JsonWriter
{
  public:
    /** Buffered stream output never holds much more than this. */
    static constexpr std::size_t kFlushBytes = 64 * 1024;

    /**
     * Append the document to @p out. Once the root value has closed the
     * destructor does not touch @p out, so it may be moved or returned
     * while the writer is still in scope.
     */
    explicit JsonWriter(std::string &out);

    /** Stream the document to @p out (buffered; see the file comment). */
    explicit JsonWriter(std::ostream &out);

    /** Flushes; all scopes must be closed before destruction (checked). */
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject() { return open(kObject, '{'); }
    JsonWriter &endObject() { return close(kObject, '}'); }
    JsonWriter &beginArray() { return open(kArray, '['); }
    JsonWriter &endArray() { return close(kArray, ']'); }

    /** Emit an object key; the next emission is its value. */
    JsonWriter &key(std::string_view name);

    /**
     * Finite doubles print as printf "%.12g" (formatGeneral); inf/nan
     * as null.
     */
    JsonWriter &value(double v);
    JsonWriter &value(long long v);
    JsonWriter &value(int v) { return value(static_cast<long long>(v)); }
    JsonWriter &value(std::size_t v)
    { return value(static_cast<long long>(v)); }
    JsonWriter &value(bool v);
    JsonWriter &value(std::string_view v);
    /** Without it a string literal would convert to bool. */
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &null();

    /**
     * Splice @p fragment in as one value, verbatim. It must be one
     * complete JSON value (an answer rendered earlier); it is not
     * checked.
     */
    JsonWriter &raw(std::string_view fragment);

    /**
     * raw() for a fragment of @p n bytes that @p fill writes in place:
     * it gets the fragment's first byte and may overwrite up to
     * @p slack bytes past its end.
     */
    template <typename Fill>
    JsonWriter &
    rawInPlace(std::size_t n, std::size_t slack, Fill &&fill)
    {
        char *p = beforeValue(room(n + slack + 1));
        fill(p);
        commit(p + n);
        afterValue();
        return *this;
    }

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    kv(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

  private:
    /** Scope bits: one byte per open scope in #_scopes. */
    static constexpr char kObject = 1;
    static constexpr char kArray = 2;
    /** Set once the scope holds an element (a comma precedes the next). */
    static constexpr char kHasElement = 4;

    /*
     * The hot paths are inline below, and each token is written with
     * plain stores into room reserved by one size check: an answer is
     * hundreds of short tokens, and a std::string call per token, or a
     * call per writer method, cost more than the bytes.
     */

    /** Room for @p n more bytes at the end of the output; see commit(). */
    char *room(std::size_t n);
    /** Grow the output so room(@p n) fits (the rare, slow path). */
    void grow(std::size_t n);
    /** The output now ends at @p end (inside the last room()). */
    void
    commit(char *end)
    {
        _len = static_cast<std::size_t>(end - _out.data());
    }

    /** Separator and checks before a value; writes a comma at @p p. */
    char *beforeValue(char *p);
    /** After a value or a close: settle a finished or large document. */
    void afterValue();
    void flush();
    JsonWriter &open(char scope, char c);
    JsonWriter &close(char scope, char c);
    /**
     * Write @p s quoted and escaped at @p p, which has room for it
     * unescaped plus two more bytes; returns the end, with room for one
     * more byte.
     */
    char *putString(std::string_view s, char *p);
    /** putString() for a string that needs escapes (the slow path). */
    char *putEscaped(std::string_view s, char *p);

    /** Panic on structural misuse: @p why, plus the open depth. */
    [[noreturn]] void misuse(const char *why) const;

    /** Stream mode's buffer; unused when rendering into a string. */
    std::string _buffer;
    /** The output; bytes at and past _len are reserved, not written. */
    std::string &_out;
    std::size_t _len;
    std::ostream *_stream = nullptr;
    /**
     * The open scopes are _scopes[0, _depth), innermost last. Slots are
     * reused rather than popped, and a string's inline buffer holds
     * any realistic nesting, so a writer allocates nothing of its own.
     */
    std::string _scopes;
    std::size_t _depth = 0;
    bool _keyPending = false;
    bool _rootWritten = false;
};

namespace detail {

/** Bytes a JSON string must escape: '"', '\\' and controls below 0x20. */
inline constexpr auto kJsonEscapes = [] {
    struct Table
    {
        bool escape[256] = {};
    } table;
    for (int c = 0; c < 0x20; ++c)
        table.escape[c] = true;
    table.escape[static_cast<unsigned char>('"')] = true;
    table.escape[static_cast<unsigned char>('\\')] = true;
    return table;
}();

/** Whether @p s goes into a JSON string as is (branch-free scan). */
inline bool
jsonPlain(std::string_view s)
{
    bool escape = false;
    for (char c : s)
        escape |= kJsonEscapes.escape[static_cast<unsigned char>(c)];
    return !escape;
}

/** Append @p s to @p out with JSON escapes. */
void appendJsonEscaped(std::string &out, std::string_view s);

} // namespace detail

inline char *
JsonWriter::room(std::size_t n)
{
    if (!_rootWritten && !_stream)
        _len = _out.size(); // the first token: append to the string as is
    if (_out.size() - _len < n)
        grow(n);
    return _out.data() + _len;
}

inline char *
JsonWriter::beforeValue(char *p)
{
    if (_depth == 0) {
        if (_rootWritten)
            misuse("JSON document has a single root");
        _rootWritten = true;
        return p;
    }
    char &top = _scopes[_depth - 1];
    if (top & kObject) {
        if (!_keyPending)
            misuse("object members need a key first");
        _keyPending = false;
        return p;
    }
    if (top & kHasElement)
        *p++ = ',';
    top |= kHasElement;
    return p;
}

inline void
JsonWriter::afterValue()
{
    if (_depth == 0 || (_stream && _len >= kFlushBytes))
        flush();
}

inline JsonWriter &
JsonWriter::open(char scope, char c)
{
    char *p = beforeValue(room(2));
    *p++ = c;
    commit(p);
    if (_depth == _scopes.size())
        _scopes += scope;
    else
        _scopes[_depth] = scope;
    ++_depth;
    return *this;
}

inline JsonWriter &
JsonWriter::close(char scope, char c)
{
    if (_depth == 0 || !(_scopes[_depth - 1] & scope))
        misuse("mismatched JSON scope close");
    if (_keyPending)
        misuse("dangling key at scope close");
    --_depth;
    char *p = room(1);
    *p++ = c;
    commit(p);
    afterValue();
    return *this;
}

inline char *
JsonWriter::putString(std::string_view s, char *p)
{
    if (!detail::jsonPlain(s))
        return putEscaped(s, p);
    *p++ = '"';
    std::memcpy(p, s.data(), s.size());
    p += s.size();
    *p++ = '"';
    return p;
}

inline JsonWriter &
JsonWriter::key(std::string_view name)
{
    if (_depth == 0 || !(_scopes[_depth - 1] & kObject))
        misuse("key() outside an object");
    if (_keyPending)
        misuse("two keys in a row");
    char *p = room(name.size() + 4);
    char &top = _scopes[_depth - 1];
    if (top & kHasElement)
        *p++ = ',';
    top |= kHasElement;
    p = putString(name, p);
    *p++ = ':';
    commit(p);
    _keyPending = true;
    return *this;
}

inline JsonWriter &
JsonWriter::value(double v)
{
    char *p = beforeValue(room(kGeneralRoom + 1));
    if (std::isfinite(v)) {
        p = formatGeneral(p, v, 12); // "%.12g": at most 19 bytes
    } else {
        std::memcpy(p, "null", 4); // JSON has no inf/nan
        p += 4;
    }
    commit(p);
    afterValue();
    return *this;
}

inline JsonWriter &
JsonWriter::value(bool v)
{
    char *p = beforeValue(room(6));
    if (v) {
        std::memcpy(p, "true", 4);
        p += 4;
    } else {
        std::memcpy(p, "false", 5);
        p += 5;
    }
    commit(p);
    afterValue();
    return *this;
}

inline JsonWriter &
JsonWriter::value(std::string_view v)
{
    commit(putString(v, beforeValue(room(v.size() + 3))));
    afterValue();
    return *this;
}

} // namespace hcm

#endif // HCM_UTIL_JSON_HH
