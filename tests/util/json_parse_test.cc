/** @file Unit tests for the JSON parser. */

#include <sstream>

#include <gtest/gtest.h>

#include "util/json.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace {

TEST(JsonParseTest, Scalars)
{
    EXPECT_TRUE(JsonValue::parse("null")->isNull());
    EXPECT_TRUE(JsonValue::parse("true")->asBool());
    EXPECT_FALSE(JsonValue::parse("false")->asBool());
    EXPECT_DOUBLE_EQ(JsonValue::parse("42")->asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("-3.5e2")->asNumber(), -350.0);
    EXPECT_EQ(JsonValue::parse("\"hi\"")->asString(), "hi");
}

TEST(JsonParseTest, WhitespaceTolerant)
{
    auto v = JsonValue::parse("  {  \"a\" : [ 1 , 2 ] }  ");
    ASSERT_TRUE(v);
    ASSERT_TRUE(v->isObject());
    const JsonValue *a = v->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items().size(), 2u);
    EXPECT_DOUBLE_EQ(a->items()[1].asNumber(), 2.0);
}

TEST(JsonParseTest, NestedStructure)
{
    auto v = JsonValue::parse(
        R"({"requests":[{"type":"optimize","f":0.99},{"type":"pareto"}]})");
    ASSERT_TRUE(v);
    const JsonValue *requests = v->find("requests");
    ASSERT_NE(requests, nullptr);
    ASSERT_EQ(requests->size(), 2u);
    EXPECT_EQ(requests->items()[0].find("type")->asString(), "optimize");
    EXPECT_DOUBLE_EQ(requests->items()[0].find("f")->asNumber(), 0.99);
    EXPECT_EQ(requests->items()[1].size(), 1u);
}

TEST(JsonParseTest, StringEscapes)
{
    auto v = JsonValue::parse(R"("a\"b\\c\nd\teA")");
    ASSERT_TRUE(v);
    EXPECT_EQ(v->asString(), "a\"b\\c\nd\teA");
}

TEST(JsonParseTest, NonAsciiUnicodeEscape)
{
    auto v = JsonValue::parse(R"("\u00e9")"); // e-acute
    ASSERT_TRUE(v);
    EXPECT_EQ(v->asString(), "\xc3\xa9");
}

TEST(JsonParseTest, DuplicateKeysLastWins)
{
    auto v = JsonValue::parse(R"({"a":1,"a":2})");
    ASSERT_TRUE(v);
    EXPECT_EQ(v->size(), 1u);
    EXPECT_DOUBLE_EQ(v->find("a")->asNumber(), 2.0);
}

TEST(JsonParseTest, MemberOrderPreserved)
{
    auto v = JsonValue::parse(R"({"z":1,"a":2,"m":3})");
    ASSERT_TRUE(v);
    ASSERT_EQ(v->members().size(), 3u);
    EXPECT_EQ(v->members()[0].first, "z");
    EXPECT_EQ(v->members()[1].first, "a");
    EXPECT_EQ(v->members()[2].first, "m");
}

TEST(JsonParseTest, MalformedInputsReportErrors)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "1 2",
          "{\"a\":1,}", "[1 2]", "\"unterminated", "nan", "+1",
          "{'a':1}",
          // RFC 8259 numbers: no leading '.' or zero, a digit after
          // '.' and after the exponent mark, nothing a double cannot
          // hold.
          ".9", "022", "-01", "22.", "1.e5", "1e", "1e+", "-", "--1",
          "-.5", "1e400", "-1e400", "[1e999]"}) {
        std::string error;
        EXPECT_FALSE(JsonValue::parse(bad, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(JsonParseTest, NumbersFollowTheJsonGrammar)
{
    std::string error;
    EXPECT_FALSE(JsonValue::parse("1e400", &error));
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;

    struct Good
    {
        const char *text;
        double value;
    };
    for (const Good &g : {Good{"0", 0.0}, Good{"-0", -0.0},
                          Good{"0.5", 0.5}, Good{"10", 10.0},
                          Good{"1e5", 1e5}, Good{"1E+2", 100.0},
                          Good{"-2.5e-3", -2.5e-3}, Good{"1e-400", 0.0},
                          Good{"1.7976931348623157e308",
                               1.7976931348623157e308}}) {
        auto v = JsonValue::parse(g.text);
        ASSERT_TRUE(v) << g.text;
        EXPECT_EQ(v->asNumber(), g.value) << g.text;
    }
}

TEST(JsonParseTest, DepthLimitRejectsHostileNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    std::string error;
    EXPECT_FALSE(JsonValue::parse(deep, &error));
    EXPECT_NE(error.find("nesting"), std::string::npos);
}

TEST(JsonParseTest, RoundTripsWriterOutput)
{
    std::ostringstream oss;
    {
        JsonWriter json(oss);
        json.beginObject();
        json.kv("name", "ASIC \"custom\"");
        json.kv("mu", 27.4);
        json.kv("feasible", true);
        json.key("nodes").beginArray();
        json.value(40).value(32).value(22);
        json.endArray();
        json.endObject();
    }
    auto v = JsonValue::parse(oss.str());
    ASSERT_TRUE(v);
    EXPECT_EQ(v->find("name")->asString(), "ASIC \"custom\"");
    EXPECT_DOUBLE_EQ(v->find("mu")->asNumber(), 27.4);
    EXPECT_TRUE(v->find("feasible")->asBool());
    EXPECT_EQ(v->find("nodes")->size(), 3u);
}

TEST(JsonParseTest, ValuesRecordTheirSourceSpan)
{
    const std::string text =
        " {\"a\" : [ 0.123456789012345678 ,{\"b\":\"x\\\"]\"} ] ,\"c\":null}\n";
    auto v = JsonValue::parse(text);
    ASSERT_TRUE(v);
    auto source = [&](const JsonValue &value) {
        auto [begin, end] = value.span();
        return text.substr(begin, end - begin);
    };
    EXPECT_EQ(source(*v), text.substr(1, text.size() - 2));
    const JsonValue &a = *v->find("a");
    EXPECT_EQ(source(a), R"([ 0.123456789012345678 ,{"b":"x\"]"} ])");
    EXPECT_EQ(source(a.items()[0]), "0.123456789012345678");
    EXPECT_EQ(source(a.items()[1]), R"({"b":"x\"]"})");
    EXPECT_EQ(source(*v->find("c")), "null");
}

TEST(JsonParseTest, TypeMismatchesDieLoudly)
{
    auto v = JsonValue::parse("[1]");
    ASSERT_TRUE(v);
    EXPECT_DEATH((void)v->asString(), "not a string");
    EXPECT_DEATH((void)v->find("x"), "not an object");
}

} // namespace
} // namespace hcm
