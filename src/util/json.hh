/**
 * @file
 * Minimal JSON writer, used to render query answers and to export
 * projection results for notebooks and external tooling. Emits compact,
 * valid JSON with correct string escaping; structural misuse (value
 * without a key inside an object, unbalanced scopes) panics rather than
 * producing silent garbage.
 *
 * Output is appended to a std::string. A writer built over a
 * std::ostream renders into its own buffer and writes it out when the
 * root value closes, whenever the buffer passes kFlushBytes, and in the
 * destructor — so large exports stream with bounded memory, and the
 * stream sees nothing of a document until one of those points. Callers
 * may write to the same stream between documents, not inside one.
 */

#ifndef HCM_UTIL_JSON_HH
#define HCM_UTIL_JSON_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace hcm {

/** Compact JSON emitter over a string or a buffered stream. */
class JsonWriter
{
  public:
    /** Buffered stream output never holds much more than this. */
    static constexpr std::size_t kFlushBytes = 64 * 1024;

    /**
     * Append the document to @p out. The destructor does not touch
     * @p out, so it may be moved or returned while the writer is still
     * in scope.
     */
    explicit JsonWriter(std::string &out);

    /** Stream the document to @p out (buffered; see the file comment). */
    explicit JsonWriter(std::ostream &out);

    /** Flushes; all scopes must be closed before destruction (checked). */
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; the next emission is its value. */
    JsonWriter &key(std::string_view name);

    /** Finite doubles print as printf "%.12g"; inf/nan as null. */
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

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    kv(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** Escape a string per JSON rules (quotes not included). */
    static std::string escape(std::string_view s);

  private:
    enum class Scope {
        Object,
        Array,
    };

    void beforeValue();
    /** After a value or a close: flush a finished or large document. */
    void afterValue();
    void flush();
    void open(Scope scope, char c);
    void close(Scope scope, char c);

    /** Stream mode's buffer; unused when rendering into a string. */
    std::string _buffer;
    std::string &_out;
    std::ostream *_stream = nullptr;
    std::vector<Scope> _stack;
    /** Whether the current scope already holds an element. */
    std::vector<bool> _hasElement;
    bool _keyPending = false;
    bool _rootWritten = false;
};

} // namespace hcm

#endif // HCM_UTIL_JSON_HH
