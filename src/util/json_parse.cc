#include "json_parse.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "logging.hh"

namespace hcm {

/** Recursive-descent parser over one input string. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : _text(text) {}

    std::optional<JsonValue>
    run(std::string *error)
    {
        JsonValue root;
        if (!parseValue(root, 0) || !atEndAfterSpace()) {
            if (_error.empty())
                fail("trailing garbage");
            if (error)
                *error = _error;
            return std::nullopt;
        }
        return root;
    }

  private:
    /** Nesting cap: deep enough for any real request, shallow enough
     *  that hostile input cannot blow the stack. */
    static constexpr std::size_t kMaxDepth = 64;

    bool
    fail(const std::string &what)
    {
        if (_error.empty())
            _error = what + " at offset " + std::to_string(_pos);
        return false;
    }

    void
    skipSpace()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
    }

    bool
    atEndAfterSpace()
    {
        skipSpace();
        return _pos >= _text.size();
    }

    bool
    consume(char c)
    {
        if (_pos < _text.size() && _text[_pos] == c) {
            ++_pos;
            return true;
        }
        return false;
    }

    bool
    consumeWord(const char *word)
    {
        std::size_t n = std::string(word).size();
        if (_text.compare(_pos, n, word) == 0) {
            _pos += n;
            return true;
        }
        return false;
    }

    bool
    parseValue(JsonValue &out, std::size_t depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting deeper than " +
                        std::to_string(kMaxDepth));
        skipSpace();
        if (_pos >= _text.size())
            return fail("unexpected end of input");
        out._begin = _pos;
        if (!parseToken(out, depth))
            return false;
        out._end = _pos;
        return true;
    }

    /** One value starting at the current (non-space) byte. */
    bool
    parseToken(JsonValue &out, std::size_t depth)
    {
        switch (_text[_pos]) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"':
            out._type = JsonValue::Type::String;
            return parseString(out._string);
          case 't':
            out._type = JsonValue::Type::Bool;
            out._bool = true;
            return consumeWord("true") || fail("bad literal");
          case 'f':
            out._type = JsonValue::Type::Bool;
            out._bool = false;
            return consumeWord("false") || fail("bad literal");
          case 'n':
            out._type = JsonValue::Type::Null;
            return consumeWord("null") || fail("bad literal");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out, std::size_t depth)
    {
        out._type = JsonValue::Type::Object;
        consume('{');
        skipSpace();
        if (consume('}'))
            return true;
        while (true) {
            skipSpace();
            std::string key;
            if (!parseString(key))
                return fail("expected object key");
            skipSpace();
            if (!consume(':'))
                return fail("expected ':'");
            JsonValue member;
            if (!parseValue(member, depth + 1))
                return false;
            // Last duplicate wins, matching common parser behavior.
            bool replaced = false;
            for (auto &kv : out._members) {
                if (kv.first == key) {
                    kv.second = std::move(member);
                    replaced = true;
                    break;
                }
            }
            if (!replaced)
                out._members.emplace_back(std::move(key),
                                          std::move(member));
            skipSpace();
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out, std::size_t depth)
    {
        out._type = JsonValue::Type::Array;
        consume('[');
        skipSpace();
        if (consume(']'))
            return true;
        while (true) {
            JsonValue element;
            if (!parseValue(element, depth + 1))
                return false;
            out._items.push_back(std::move(element));
            skipSpace();
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (_pos < _text.size()) {
            unsigned char c =
                static_cast<unsigned char>(_text[_pos++]);
            if (c == '"')
                return true;
            if (c < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += static_cast<char>(c);
                continue;
            }
            if (_pos >= _text.size())
                break;
            char esc = _text[_pos++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out += esc;
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                unsigned code = 0;
                if (!parseHex4(code))
                    return fail("bad \\u escape");
                appendUtf8(out, code);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseHex4(unsigned &code)
    {
        if (_pos + 4 > _text.size())
            return false;
        code = 0;
        for (int i = 0; i < 4; ++i) {
            char c = _text[_pos++];
            code <<= 4;
            if (c >= '0' && c <= '9')
                code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
            else
                return false;
        }
        return true;
    }

    /** Encode one BMP code point (surrogates pass through as-is). */
    static void
    appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    /** Consume a run of decimal digits; false when there is none. */
    bool
    consumeDigits()
    {
        std::size_t from = _pos;
        while (_pos < _text.size() &&
               std::isdigit(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
        return _pos > from;
    }

    /**
     * RFC 8259 number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]?
     * [0-9]+)?, and finite as a double (1e400 is rejected, not inf).
     */
    bool
    parseNumber(JsonValue &out)
    {
        std::size_t start = _pos;
        consume('-');
        if (consume('0')) {
            if (consumeDigits())
                return fail("malformed number (leading zero)");
        } else if (!consumeDigits()) {
            return fail(_pos == start ? "expected a value"
                                      : "malformed number");
        }
        if (consume('.') && !consumeDigits())
            return fail("malformed number (no digit after '.')");
        if (consume('e') || consume('E')) {
            if (!consume('+'))
                consume('-');
            if (!consumeDigits())
                return fail("malformed number (no exponent digit)");
        }
        std::string token = _text.substr(start, _pos - start);
        double v = std::strtod(token.c_str(), nullptr);
        if (!std::isfinite(v))
            return fail("number out of range");
        out._type = JsonValue::Type::Number;
        out._number = v;
        return true;
    }

    const std::string &_text;
    std::size_t _pos = 0;
    std::string _error;
};

std::optional<JsonValue>
JsonValue::parse(const std::string &text, std::string *error)
{
    return JsonParser(text).run(error);
}

std::string
JsonValue::typeName(Type type)
{
    switch (type) {
      case Type::Null:
        return "null";
      case Type::Bool:
        return "bool";
      case Type::Number:
        return "number";
      case Type::String:
        return "string";
      case Type::Array:
        return "array";
      case Type::Object:
        return "object";
    }
    return "unknown";
}

bool
JsonValue::asBool() const
{
    hcm_assert(isBool(), "JSON ", typeName(_type), " is not a bool");
    return _bool;
}

double
JsonValue::asNumber() const
{
    hcm_assert(isNumber(), "JSON ", typeName(_type), " is not a number");
    return _number;
}

const std::string &
JsonValue::asString() const
{
    hcm_assert(isString(), "JSON ", typeName(_type), " is not a string");
    return _string;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    hcm_assert(isArray(), "JSON ", typeName(_type), " is not an array");
    return _items;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    hcm_assert(isObject(), "JSON ", typeName(_type), " is not an object");
    return _members;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    hcm_assert(isObject(), "JSON ", typeName(_type), " is not an object");
    for (const auto &kv : _members)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

std::size_t
JsonValue::size() const
{
    if (isArray())
        return _items.size();
    if (isObject())
        return _members.size();
    return 0;
}

} // namespace hcm
