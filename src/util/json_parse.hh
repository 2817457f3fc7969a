/**
 * @file
 * Minimal JSON parser, the reading counterpart of JsonWriter. Parses a
 * complete document into an immutable DOM (JsonValue). Built for the
 * query-service request formats: strict JSON (no comments, no trailing
 * commas), objects keep member order, duplicate keys keep the last
 * occurrence. Parse errors are reported to the caller instead of
 * panicking so a server can reject one bad request and keep running.
 */

#ifndef HCM_UTIL_JSON_PARSE_HH
#define HCM_UTIL_JSON_PARSE_HH

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hcm {

/** One parsed JSON value (an immutable tree). */
class JsonValue
{
  public:
    enum class Type {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /**
     * Parse @p text as one JSON document. Returns nullopt on malformed
     * input and, when @p error is non-null, stores a one-line
     * description with the byte offset of the failure.
     */
    static std::optional<JsonValue> parse(const std::string &text,
                                          std::string *error = nullptr);

    Type type() const { return _type; }
    bool isNull() const { return _type == Type::Null; }
    bool isBool() const { return _type == Type::Bool; }
    bool isNumber() const { return _type == Type::Number; }
    bool isString() const { return _type == Type::String; }
    bool isArray() const { return _type == Type::Array; }
    bool isObject() const { return _type == Type::Object; }

    /** Type name for error messages ("object", "number", ...). */
    static std::string typeName(Type type);

    /** Value accessors; panic when the type does not match. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** Array elements; panics unless isArray(). */
    const std::vector<JsonValue> &items() const;

    /** Object members in document order; panics unless isObject(). */
    const std::vector<std::pair<std::string, JsonValue>> &members() const;

    /** Member lookup; nullptr when absent. Panics unless isObject(). */
    const JsonValue *find(const std::string &key) const;

    /** Element/member count; 0 for scalars. */
    std::size_t size() const;

    /**
     * Byte offsets [first, second) of this value in the text it was
     * parsed from, so a caller can forward a member's original bytes
     * (re-serializing would round doubles).
     */
    std::pair<std::size_t, std::size_t>
    span() const
    {
        return {_begin, _end};
    }

  private:
    friend class JsonParser;

    Type _type = Type::Null;
    bool _bool = false;
    double _number = 0.0;
    std::string _string;
    std::vector<JsonValue> _items;
    std::vector<std::pair<std::string, JsonValue>> _members;
    std::size_t _begin = 0;
    std::size_t _end = 0;
};

} // namespace hcm

#endif // HCM_UTIL_JSON_PARSE_HH
