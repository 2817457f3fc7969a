/** @file Unit tests for the streaming JSON writer. */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "util/json.hh"

namespace hcm {
namespace {

std::string
build(const std::function<void(JsonWriter &)> &fn)
{
    std::ostringstream oss;
    {
        JsonWriter json(oss);
        fn(json);
    }
    return oss.str();
}

TEST(JsonTest, EmptyContainers)
{
    EXPECT_EQ(build([](JsonWriter &j) { j.beginObject().endObject(); }),
              "{}");
    EXPECT_EQ(build([](JsonWriter &j) { j.beginArray().endArray(); }),
              "[]");
}

TEST(JsonTest, ObjectWithMixedValues)
{
    std::string out = build([](JsonWriter &j) {
        j.beginObject();
        j.kv("name", "ASIC");
        j.kv("mu", 27.4);
        j.kv("tiles", 42);
        j.kv("exempt", true);
        j.key("missing").null();
        j.endObject();
    });
    EXPECT_EQ(out, "{\"name\":\"ASIC\",\"mu\":27.4,\"tiles\":42,"
                   "\"exempt\":true,\"missing\":null}");
}

TEST(JsonTest, NestedArraysAndObjects)
{
    std::string out = build([](JsonWriter &j) {
        j.beginObject();
        j.key("series").beginArray();
        j.beginObject().kv("f", 0.5).endObject();
        j.beginObject().kv("f", 0.9).endObject();
        j.endArray();
        j.endObject();
    });
    EXPECT_EQ(out, "{\"series\":[{\"f\":0.5},{\"f\":0.9}]}");
}

TEST(JsonTest, ArrayCommaPlacement)
{
    std::string out = build([](JsonWriter &j) {
        j.beginArray().value(1).value(2).value(3).endArray();
    });
    EXPECT_EQ(out, "[1,2,3]");
}

TEST(JsonTest, StringEscaping)
{
    auto escape = [](std::string_view s) {
        std::string out;
        detail::appendJsonEscaped(out, s);
        return out;
    };
    EXPECT_EQ(escape("plain"), "plain");
    EXPECT_EQ(escape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(escape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(escape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonTest, NonFiniteNumbersBecomeNull)
{
    std::string out = build([](JsonWriter &j) {
        j.beginArray();
        j.value(1.0 / 0.0);
        j.value(std::nan(""));
        j.endArray();
    });
    EXPECT_EQ(out, "[null,null]");
}

TEST(JsonTest, ScalarRoot)
{
    EXPECT_EQ(build([](JsonWriter &j) { j.value(42); }), "42");
}

TEST(JsonTest, StringTargetAppends)
{
    std::string out = "prefix:";
    JsonWriter j(out);
    j.beginObject().kv("k", "v").endObject();
    EXPECT_EQ(out, "prefix:{\"k\":\"v\"}");
}

TEST(JsonTest, RawSplicesOneValue)
{
    std::string out = build([](JsonWriter &j) {
        j.beginObject();
        j.key("a").raw("{\"x\":[1,2]}");
        j.key("b").beginArray();
        j.raw("1").raw("\"two\"").value(3);
        j.endArray();
        j.endObject();
    });
    EXPECT_EQ(out, "{\"a\":{\"x\":[1,2]},\"b\":[1,\"two\",3]}");
    EXPECT_EQ(build([](JsonWriter &j) { j.raw("[]"); }), "[]");
}

TEST(JsonTest, RawInPlaceKeepsOnlyTheFragmentAndSeparators)
{
    // The filler scribbles past the fragment; that scratch must be
    // overwritten by what follows, in string and in stream mode.
    auto fill = [](JsonWriter &j, std::string_view text) {
        j.rawInPlace(text.size(), 8, [&](char *dst) {
            std::memcpy(dst, text.data(), text.size());
            std::memset(dst + text.size(), '#', 8);
        });
    };
    auto doc = [&](JsonWriter &j) {
        j.beginArray();
        fill(j, "{\"x\":1}");
        fill(j, "22");
        j.value(3);
        j.endArray();
    };
    EXPECT_EQ(build(doc), "[{\"x\":1},22,3]");
    std::string out = "pre";
    {
        JsonWriter j(out);
        doc(j);
    }
    EXPECT_EQ(out, "pre[{\"x\":1},22,3]");
}

TEST(JsonTest, StreamSeesEachDocumentBeforeLaterWrites)
{
    // Callers write delimiters to the stream between documents while
    // the writer is still alive; the root close must have flushed.
    std::ostringstream oss;
    JsonWriter first(oss);
    first.beginObject().kv("n", 1).endObject();
    oss << "\n";
    JsonWriter second(oss);
    second.beginArray().value(2).endArray();
    oss << "\n";
    JsonWriter scalar(oss);
    scalar.value("s");
    oss << "\n";
    EXPECT_EQ(oss.str(), "{\"n\":1}\n[2]\n\"s\"\n");
}

TEST(JsonTest, LargeStreamedDocumentsFlushAsTheyGrow)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginArray();
    std::string chunk(1000, 'x');
    while (oss.tellp() <= 0)
        json.value(chunk);
    // Flushed once the buffer passed the threshold, well before the
    // document ends, and never much more than the threshold at once.
    std::size_t flushed = static_cast<std::size_t>(oss.tellp());
    EXPECT_GE(flushed, JsonWriter::kFlushBytes);
    EXPECT_LT(flushed, JsonWriter::kFlushBytes + chunk.size() + 8);
    json.endArray();
    std::string doc = oss.str();
    EXPECT_EQ(doc.front(), '[');
    EXPECT_EQ(doc.back(), ']');
}

/** What the writer produced before to_chars: printf's "%.12g". */
std::string
printfG12(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

std::string
rendered(double v)
{
    std::string out;
    JsonWriter(out).value(v);
    return out;
}

TEST(JsonTest, DoublesMatchPrintfG12)
{
    std::vector<double> values = {
        0.0, -0.0, 0.1, 0.5, 1.0, -1.0, 1e21, 1e-21, 1e-5, 1e-4,
        123456789012.0, 1234567890123.0, 999999999999.0,
        9007199254740992.0, // 2^53
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        2.2250738585072009e-308, // largest subnormal
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::epsilon(),
        // Exact ties at the 12th significant digit: round half to even.
        123456789012.5, 123456789013.5, 999999999999.5,
        1234567890125.0, 1234567890135.0, 0.5e-300,
    };
    std::mt19937_64 rng(20101204);
    // 13-digit integers ending in 5 and 12-digit ones plus a half are
    // exactly representable, so each is a true decimal tie.
    std::uniform_int_distribution<long long> twelve(100000000000LL,
                                                    999999999999LL);
    for (int i = 0; i < 2000; ++i) {
        long long m = twelve(rng);
        values.push_back(static_cast<double>(m) + 0.5);
        values.push_back(static_cast<double>(m * 10 + 5));
        values.push_back(-static_cast<double>(m * 10 + 5) / 1024.0);
    }
    // Random bit patterns cover every exponent and both subnormals and
    // normals; non-finite ones are the writer's null case.
    for (int i = 0; i < 200000; ++i) {
        std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        values.push_back(v);
    }
    // Values shaped like model outputs: a few significant digits.
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < 20000; ++i)
        values.push_back(unit(rng) * std::pow(10.0, (i % 40) - 20));
    for (double v : values) {
        if (!std::isfinite(v)) {
            EXPECT_EQ(rendered(v), "null");
            continue;
        }
        ASSERT_EQ(rendered(v), printfG12(v)) << std::hexfloat << v;
    }
}

TEST(JsonDeathTest, StructuralMisuse)
{
    std::ostringstream oss;
    EXPECT_DEATH(
        {
            JsonWriter j(oss);
            j.beginObject();
            j.value(1.0); // value without key
        },
        "key");
    EXPECT_DEATH(
        {
            JsonWriter j(oss);
            j.beginArray();
            j.key("oops");
        },
        "outside an object");
    EXPECT_DEATH(
        {
            JsonWriter j(oss);
            j.beginObject();
            j.endArray();
        },
        "mismatched");
    EXPECT_DEATH(
        {
            JsonWriter j(oss);
            j.beginObject();
            // destroyed with an open scope
        },
        "open scope");
}

} // namespace
} // namespace hcm
