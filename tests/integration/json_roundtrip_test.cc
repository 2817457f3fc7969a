/** @file Strict validation of exported JSON: a small recursive-descent
 *  parser (tests-only) consumes the whole document, proving the export
 *  is well-formed JSON rather than merely containing expected
 *  substrings. */

#include <cctype>
#include <cstring>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "report/export.hh"

namespace hcm {
namespace {

/** Minimal JSON validator: parses or reports the failing offset. */
class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : _text(text) {}

    /** True when the text is exactly one valid JSON value. */
    bool
    valid()
    {
        _pos = 0;
        skipWs();
        if (!value())
            return false;
        skipWs();
        return _pos == _text.size();
    }

    std::size_t failedAt() const { return _pos; }

  private:
    void
    skipWs()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
    }

    bool
    literal(const char *word)
    {
        std::size_t len = std::string(word).size();
        if (_text.compare(_pos, len, word) != 0)
            return false;
        _pos += len;
        return true;
    }

    bool
    string()
    {
        if (_pos >= _text.size() || _text[_pos] != '"')
            return false;
        ++_pos;
        while (_pos < _text.size() && _text[_pos] != '"') {
            if (_text[_pos] == '\\') {
                ++_pos;
                if (_pos >= _text.size())
                    return false;
                char e = _text[_pos];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++_pos;
                        if (_pos >= _text.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                _text[_pos])))
                            return false;
                    }
                } else if (!strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
            ++_pos;
        }
        if (_pos >= _text.size())
            return false;
        ++_pos; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = _pos;
        if (_pos < _text.size() && _text[_pos] == '-')
            ++_pos;
        while (_pos < _text.size() &&
               (std::isdigit(static_cast<unsigned char>(_text[_pos])) ||
                strchr(".eE+-", _text[_pos])))
            ++_pos;
        return _pos > start;
    }

    bool
    value()
    {
        skipWs();
        if (_pos >= _text.size())
            return false;
        char c = _text[_pos];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool
    object()
    {
        ++_pos; // '{'
        skipWs();
        if (_pos < _text.size() && _text[_pos] == '}') {
            ++_pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (_pos >= _text.size() || _text[_pos] != ':')
                return false;
            ++_pos;
            if (!value())
                return false;
            skipWs();
            if (_pos < _text.size() && _text[_pos] == ',') {
                ++_pos;
                continue;
            }
            break;
        }
        if (_pos >= _text.size() || _text[_pos] != '}')
            return false;
        ++_pos;
        return true;
    }

    bool
    array()
    {
        ++_pos; // '['
        skipWs();
        if (_pos < _text.size() && _text[_pos] == ']') {
            ++_pos;
            return true;
        }
        for (;;) {
            if (!value())
                return false;
            skipWs();
            if (_pos < _text.size() && _text[_pos] == ',') {
                ++_pos;
                continue;
            }
            break;
        }
        if (_pos >= _text.size() || _text[_pos] != ']')
            return false;
        ++_pos;
        return true;
    }

    const std::string &_text;
    std::size_t _pos = 0;
};

TEST(JsonValidatorTest, AcceptsValidDocuments)
{
    for (const char *doc :
         {"{}", "[]", "42", "-1.5e3", "\"s\"", "true", "null",
          R"({"a":[1,2,{"b":null}],"c":"x\ny","d":false})",
          R"(["é", 0.5, []])"})
        EXPECT_TRUE(JsonValidator(std::string(doc)).valid()) << doc;
}

TEST(JsonValidatorTest, RejectsInvalidDocuments)
{
    for (const char *doc :
         {"{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "\"unterminated",
          "{} extra", "{\"a\":1,}"})
        EXPECT_FALSE(JsonValidator(std::string(doc)).valid()) << doc;
}

/** Every export the CLI can produce parses end to end. */
class ExportIsValidJson
    : public ::testing::TestWithParam<wl::Kind>
{
};

TEST_P(ExportIsValidJson, ParsesCompletely)
{
    wl::Workload w = GetParam() == wl::Kind::FFT
                         ? wl::Workload::fft(1024)
                     : GetParam() == wl::Kind::MMM
                         ? wl::Workload::mmm()
                         : wl::Workload::blackScholes();
    for (const core::Scenario &s :
         {core::baselineScenario(),
          core::scenarioByName("bandwidth-1tb"),
          core::scenarioByName("power-10w")}) {
        std::ostringstream oss;
        report::exportProjectionJson(oss, w, {0.5, 0.9, 0.99, 0.999}, s);
        std::string doc = oss.str();
        JsonValidator v(doc);
        EXPECT_TRUE(v.valid())
            << w.name() << "/" << s.name << " failed at offset "
            << v.failedAt() << ": ..."
            << doc.substr(std::min(v.failedAt(), doc.size()), 40);
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ExportIsValidJson,
                         ::testing::Values(wl::Kind::MMM,
                                           wl::Kind::BlackScholes,
                                           wl::Kind::FFT),
                         [](const auto &info) {
                             return info.param == wl::Kind::MMM ? "MMM"
                                    : info.param == wl::Kind::FFT
                                        ? "FFT"
                                        : "BS";
                         });

} // namespace
} // namespace hcm
