/** @file The answer codec round-trips every input byte for byte: seeded
 *  random bytes, number runs, vocabulary strings whole and cut, the
 *  empty string, error answers, and the golden answer mix, which must
 *  also pack at least 3.5x. */

#include "svc/answer_codec.hh"

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "svc/query.hh"
#include "svc/request.hh"

namespace hcm {
namespace svc {
namespace {

std::string
packed(std::string_view text)
{
    std::string out;
    packAnswer(text, out);
    return out;
}

/** Both expansion paths give back @p text, and the header its length. */
void
expectRoundTrip(const std::string &text)
{
    std::string p = packed(text);
    EXPECT_EQ(expandedSize(p), text.size());
    std::string appended = "prefix";
    appendExpanded(p, appended);
    EXPECT_EQ(appended, "prefix" + text);
    std::vector<char> buf(text.size() + kAnswerExpandSlack, '#');
    char *end = expandAnswer(p, buf.data());
    ASSERT_EQ(static_cast<std::size_t>(end - buf.data()), text.size());
    EXPECT_EQ(std::string(buf.data(), text.size()), text);
}

/** Stored raw: one mode byte, the length varint, the text. */
bool
storedRaw(const std::string &text)
{
    std::string p = packed(text);
    return p.size() > text.size() &&
           p.compare(p.size() - text.size(), text.size(), text) == 0;
}

TEST(AnswerCodecTest, EmptyStringRoundTrips)
{
    expectRoundTrip("");
    EXPECT_EQ(expandedSize(""), 0u);
    std::string out = "kept";
    appendExpanded("", out);
    EXPECT_EQ(out, "kept");
    Answer none;
    EXPECT_EQ(none.size(), 0u);
    EXPECT_EQ(none.packedBytes(), 0u);
}

TEST(AnswerCodecTest, RandomBytesRoundTrip)
{
    std::mt19937 rng(19);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<int> length(0, 400);
    for (int trial = 0; trial < 300; ++trial) {
        std::string text(static_cast<std::size_t>(length(rng)), '\0');
        for (char &c : text)
            c = static_cast<char>(byte(rng));
        expectRoundTrip(text);
    }
}

TEST(AnswerCodecTest, HighBytesAreStoredRaw)
{
    std::string text = R"({"query":{"type":"optimize","f":0.123456789})";
    EXPECT_FALSE(storedRaw(text));
    text += '\x80';
    EXPECT_TRUE(storedRaw(text));
    expectRoundTrip(text);
    text = "\xff" + text;
    EXPECT_TRUE(storedRaw(text));
    expectRoundTrip(text);
}

TEST(AnswerCodecTest, TextThatWouldNotShrinkIsStoredRaw)
{
    for (std::string text : {"a", "ab", "x1y2z", "no tokens here"}) {
        EXPECT_TRUE(storedRaw(text)) << text;
        expectRoundTrip(text);
    }
}

TEST(AnswerCodecTest, NumberRunsOfEveryLengthRoundTrip)
{
    const std::string chars = "0123456789.-+eE";
    std::mt19937 rng(7);
    std::uniform_int_distribution<std::size_t> pick(0, chars.size() - 1);
    for (std::size_t len = 1; len <= 100; ++len) {
        std::string run;
        for (std::size_t i = 0; i < len; ++i)
            run += chars[pick(rng)];
        expectRoundTrip(run);
        expectRoundTrip(R"({"r":)" + run + "}");
        expectRoundTrip(run + R"(,"n":)" + run);
        // Digits only pack two to a byte plus a code per 32.
        std::string digits(len, '7');
        if (len >= 8) {
            EXPECT_LE(packed(digits).size(), 2 + len / 2 + len / 32 + 2)
                << len;
        }
    }
}

TEST(AnswerCodecTest, VocabularyIsAtMost96AsciiStrings)
{
    const std::vector<std::string> &vocab = answerVocabulary();
    EXPECT_LE(vocab.size(), 96u);
    for (const std::string &s : vocab) {
        EXPECT_GE(s.size(), 2u) << s;
        EXPECT_LE(s.size(), kAnswerExpandSlack) << s;
        for (char c : s)
            EXPECT_LT(static_cast<unsigned char>(c), 0x80) << s;
        // One string alone packs to one code after the header.
        EXPECT_EQ(packed(s).size(), 3u) << s;
    }
    for (const char *name :
         {"optimize", "FFT-16384", "bandwidth-1tb", "V6-LX760", "22nm",
          "thermal", "Core i7-960", R"(22nm","feasible":true,"r":)",
          R"(AsymCMP","node":")", R"(power","energyNormalized":)"})
        EXPECT_NE(std::find(vocab.begin(), vocab.end(), name), vocab.end())
            << name;
}

TEST(AnswerCodecTest, VocabularyBackToBackAndCutRoundTrips)
{
    std::vector<std::string> vocab = answerVocabulary();
    std::mt19937 rng(42);
    for (int trial = 0; trial < 20; ++trial) {
        std::shuffle(vocab.begin(), vocab.end(), rng);
        std::string all;
        for (const std::string &s : vocab)
            all += s;
        expectRoundTrip(all);
        // Greedy matching may take a longer string across a boundary
        // and leave the rest as literals, but most strings stay codes.
        EXPECT_LT(packed(all).size() * 4, all.size());
    }
    for (const std::string &a : vocab) {
        for (std::size_t cut = 1; cut < a.size(); ++cut) {
            expectRoundTrip(a.substr(0, cut));
            expectRoundTrip(a.substr(cut));
            expectRoundTrip(a.substr(0, cut) + a);
            expectRoundTrip(a.substr(cut) + "12345" + a.substr(0, cut));
        }
    }
}

TEST(AnswerCodecTest, ErrorAnswerEchoingRequestIdRoundTrips)
{
    Query q;
    q.type = QueryType::Pareto;
    q.device = dev::DeviceId::Gtx480;
    q.requestId = "client-7f3a";
    q.requestIdEcho = true;
    QueryResult error = makeQueryError(q, QueryErrorKind::Overloaded,
                                       "queue full", 25);
    std::string text = error.toJson();
    ASSERT_NE(text.find(R"("requestId":"client-7f3a")"), std::string::npos);
    expectRoundTrip(text);
    Answer answer = renderAnswer(error);
    EXPECT_FALSE(answer.ok());
    EXPECT_EQ(answer.errorKind, QueryErrorKind::Overloaded);
    std::string out;
    answer.appendTo(out);
    EXPECT_EQ(out, text);
    EXPECT_LT(answer.packedBytes(), text.size());
}

TEST(AnswerCodecTest, AnswerSplicesIntoAJsonWriter)
{
    Answer a(R"({"organization":"ASIC","node":"22nm"})");
    Answer b(R"({"r":16.8642247501})");
    std::string out = "x";
    {
        JsonWriter json(out);
        json.beginArray();
        a.writeTo(json);
        b.writeTo(json);
        json.endArray();
    }
    EXPECT_EQ(out, R"(x[{"organization":"ASIC","node":"22nm"},)"
                   R"({"r":16.8642247501}])");
}

TEST(AnswerCodecTest, GoldenAnswersRoundTripAndPackAtLeast3_5x)
{
    std::ifstream in(std::string(HCM_SVC_DATA_DIR) + "/answers_mix.json",
                     std::ios::binary);
    ASSERT_TRUE(in);
    std::ostringstream mix;
    mix << in.rdbuf();
    std::string error;
    auto batch = parseBatchDocument(mix.str(), &error);
    ASSERT_TRUE(batch) << error;
    std::size_t text_bytes = 0;
    std::size_t packed_bytes = 0;
    for (const Query &q : batch->queries) {
        QueryResult result = evaluateQuery(q);
        std::string text = result.toJson();
        expectRoundTrip(text);
        Answer answer = renderAnswer(result);
        EXPECT_EQ(answer.size(), text.size());
        std::string out;
        answer.appendTo(out);
        EXPECT_EQ(out, text);
        text_bytes += text.size();
        packed_bytes += answer.packedBytes();
    }
    double ratio = static_cast<double>(text_bytes) /
                   static_cast<double>(packed_bytes);
    EXPECT_GE(ratio, 3.5) << text_bytes << " -> " << packed_bytes;
}

} // namespace
} // namespace svc
} // namespace hcm
