/** @file The packed answer writer against the JsonWriter reference
 *  (tests/oracle/answer_json): toJson(), renderAnswer()'s appendTo,
 *  writeTo and expandAnswer give its bytes exactly on the golden mix,
 *  on seeded draws over every query type, workload, scenario, device
 *  filter, node and f, on perfbench serve-cold's traffic, on every
 *  error kind, on numbers at every edge of "%.12g" and on free text
 *  holding quotes, backslashes, control bytes and bytes of 0x80 and
 *  above. The golden mix and the serve-cold draws also pin how small
 *  the packed answers are. */

#include "svc/answer_codec.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/organization.hh"
#include "core/projection.hh"
#include "core/scenario.hh"
#include "devices/measured.hh"
#include "itrs/scaling.hh"
#include "oracle/answer_json.hh"
#include "svc/query.hh"
#include "svc/request.hh"
#include "util/format.hh"

namespace hcm {
namespace svc {
namespace {

/** @p v as formatGeneral() prints it. */
std::string
general(double v, int precision)
{
    char buf[kGeneralRoom];
    return {buf, formatGeneral(buf, v, precision)};
}

std::string
packed(const QueryResult &result)
{
    std::string out;
    packAnswer(result, out);
    return out;
}

/**
 * Every reader of @p result's packed answer gives the oracle's bytes,
 * and the header their length; returns them.
 */
std::string
expectMatchesOracle(const QueryResult &result, const std::string &where)
{
    std::string want = answerJson(result);
    EXPECT_EQ(result.toJson(), want) << where;
    std::string p = packed(result);
    EXPECT_EQ(expandedSize(p), want.size()) << where;
    std::vector<char> buf(want.size() + kAnswerExpandSlack, '#');
    char *end = expandAnswer(p, buf.data());
    EXPECT_EQ(std::string(buf.data(), end), want) << where;

    std::shared_ptr<const Answer> answer_block = renderAnswer(result);
    const Answer &answer = *answer_block;
    EXPECT_EQ(answer.errorKind, result.errorKind) << where;
    EXPECT_EQ(answer.packedBytes(), p.size()) << where;
    EXPECT_EQ(answer.size(), want.size()) << where;
    std::string appended = "prefix";
    answer.appendTo(appended);
    EXPECT_EQ(appended, "prefix" + want) << where;
    return want;
}

/** The golden mix's queries. */
std::vector<Query>
goldenQueries()
{
    std::ifstream in(std::string(HCM_SVC_DATA_DIR) + "/answers_mix.json",
                     std::ios::binary);
    EXPECT_TRUE(in);
    std::ostringstream mix;
    mix << in.rdbuf();
    std::string error;
    auto batch = parseBatchDocument(mix.str(), &error);
    EXPECT_TRUE(batch) << error;
    return batch ? batch->queries : std::vector<Query>{};
}

/** evaluateQuery(), or the error the engine answers when it throws. */
QueryResult
evaluated(const Query &q)
{
    try {
        return evaluateQuery(q);
    } catch (const std::exception &e) {
        return makeQueryError(q, QueryErrorKind::EvaluationFailed, e.what());
    }
}

/** A one-row success answer whose every number is @p v. */
QueryResult
rowOf(double v)
{
    QueryResult result;
    result.query.f = v;
    result.query.node = v;
    ResultRow row;
    row.feasible = true;
    row.r = row.n = row.speedup = row.energyNormalized = v;
    result.rows.push_back(row);
    return result;
}

/**
 * @p count queries of perfbench serve-cold's traffic from @p seed, each
 * with its description: type, workload (mmm, bs, fft:1024, fft:16384),
 * scenario and node uniform, f uniform in [0.5, 0.9999].
 */
std::vector<std::pair<Query, std::string>>
serveColdDraws(std::uint32_t seed, int count)
{
    std::mt19937 rng(seed);
    auto pick = [&](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    const std::vector<wl::Workload> workloads = {
        wl::Workload::mmm(), wl::Workload::blackScholes(),
        wl::Workload::fft(1024), wl::Workload::fft(16384)};
    const std::vector<core::Scenario> &scenarios = core::allScenarios();
    const std::vector<itrs::NodeParams> &nodes = itrs::nodeTable();
    std::uniform_real_distribution<double> f(0.5, 0.9999);
    std::vector<std::pair<Query, std::string>> draws;
    for (int draw = 0; draw < count; ++draw) {
        Query q;
        q.type = allQueryTypes()[pick(allQueryTypes().size())];
        q.workload = workloads[pick(workloads.size())];
        q.scenario = scenarios[pick(scenarios.size())].name;
        q.node = nodes[pick(nodes.size())].nodeNm;
        q.f = f(rng);
        std::ostringstream where;
        where << "seed " << seed << " draw " << draw << ": "
              << queryTypeName(q.type) << " " << q.workload.name()
              << " f=" << general(q.f, 17) << " " << q.scenario
              << " node=" << q.node;
        draws.emplace_back(q, where.str());
    }
    return draws;
}

TEST(AnswerCodecTest, EmptyStringRoundTrips)
{
    EXPECT_EQ(expandedSize(""), 0u);
    std::string out = "kept";
    appendExpanded("", out);
    EXPECT_EQ(out, "kept");
    char buf[kAnswerExpandSlack];
    EXPECT_EQ(expandAnswer("", buf), buf);
    Answer none;
    EXPECT_TRUE(none.ok());
    EXPECT_EQ(none.size(), 0u);
    EXPECT_EQ(none.packedBytes(), 0u);
    none.appendTo(out);
    EXPECT_EQ(out, "kept");
}

TEST(AnswerCodecTest, GoldenMixMatchesTheOracle)
{
    std::vector<Query> queries = goldenQueries();
    ASSERT_FALSE(queries.empty());
    for (std::size_t i = 0; i < queries.size(); ++i)
        expectMatchesOracle(evaluateQuery(queries[i]),
                            "golden query " + std::to_string(i));
}

TEST(AnswerCodecTest, SeededDrawsMatchTheOracle)
{
    const std::uint32_t seed = 20101204;
    std::mt19937 rng(seed);
    auto pick = [&](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    std::vector<wl::Workload> workloads = dev::table5Workloads();
    const std::vector<core::Scenario> &scenarios = core::allScenarios();
    const std::vector<itrs::NodeParams> &nodes = itrs::nodeTable();
    const std::vector<dev::DeviceId> &devices = dev::allDevices();
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int draw = 0; draw < 400; ++draw) {
        Query q;
        q.type = allQueryTypes()[pick(allQueryTypes().size())];
        q.workload = workloads[pick(workloads.size())];
        q.scenario = scenarios[pick(scenarios.size())].name;
        q.node = nodes[pick(nodes.size())].nodeNm;
        if (std::size_t d = pick(devices.size() + 1); d < devices.size())
            q.device = devices[d];
        switch (pick(3)) {
          case 0:
            q.f = unit(rng);
            break;
          case 1:
            q.f = core::standardFractions()[pick(4)];
            break;
          default:
            q.f = static_cast<double>(pick(2));
        }
        std::ostringstream where;
        where << "seed " << seed << " draw " << draw << ": "
              << queryTypeName(q.type) << " " << q.workload.name()
              << " f=" << general(q.f, 17) << " " << q.scenario
              << " node=" << q.node << " device="
              << (q.device ? dev::deviceName(*q.device) : "*");
        expectMatchesOracle(evaluated(q), where.str());
    }
}

TEST(AnswerCodecTest, ServeColdDrawsMatchTheOracle)
{
    // The traffic serve-cold keeps packed: 2,000 draws cover its 4
    // types x 4 workloads x 10 scenarios x 5 nodes about 2.5 times.
    ASSERT_EQ(core::allScenarios().size(), 10u);
    ASSERT_EQ(itrs::nodeTable().size(), 5u);
    for (const auto &[q, where] : serveColdDraws(20260601, 2000))
        expectMatchesOracle(evaluated(q), where);
}

TEST(AnswerCodecTest, ServeColdDrawsPackToAtMost348_3BytesAnAnswer)
{
    std::size_t packed_bytes = 0;
    std::vector<std::pair<Query, std::string>> draws =
        serveColdDraws(20260601, 2000);
    for (const auto &draw : draws)
        packed_bytes += packed(evaluated(draw.first)).size();
    double mean = static_cast<double>(packed_bytes) /
                  static_cast<double>(draws.size());
    // 682,975 bytes, 341.5 a mean answer, plus 2%.
    EXPECT_LE(mean, 348.3) << packed_bytes << " bytes in " << draws.size()
                           << " answers";
}

TEST(AnswerCodecTest, EveryErrorKindMatchesTheOracle)
{
    const std::uint32_t seed = 2010;
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<int> length(0, 40);
    auto random_text = [&] {
        std::string s(static_cast<std::size_t>(length(rng)), '\0');
        for (char &c : s)
            c = static_cast<char>(byte(rng));
        return s;
    };
    const std::vector<std::string> ids = {
        "",        "client-7f3a", "q\"uote", "back\\slash",
        "ctl\x01\x1f\n\t\r", "\xc3\xa9t\xc3\xa9\x80\xff"};
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    const std::vector<std::uint64_t> retries = {
        0, 1, 9, 10, 25, 99, 100, 1000, 1000000000000, max / 2, max / 2 + 1,
        max};
    const std::vector<double> odd = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), 0.0, -0.0, 5e-324,
        -2.5e-320, 2.2250738585072014e-308, -1e300, 0.1234567890123456,
        -0.75, 1e-5, 1e-4, 1e11, 1e12, 123456789012.0, 45.0, 100.0};
    int draw = 0;
    for (QueryErrorKind kind :
         {QueryErrorKind::EvaluationFailed, QueryErrorKind::DeadlineExceeded,
          QueryErrorKind::Overloaded, QueryErrorKind::ShardUnavailable}) {
        for (std::uint64_t retry : retries) {
            for (const std::string &id : ids) {
                for (bool echo : {false, true}) {
                    Query q;
                    q.type = allQueryTypes()[draw % 4];
                    q.requestId = draw % 7 == 0 ? random_text() : id;
                    q.requestIdEcho = echo;
                    q.f = odd[draw % odd.size()];
                    q.node = odd[(draw + 1) % odd.size()];
                    // Names outside the registries go out as text.
                    if (draw % 3 == 0)
                        q.scenario = random_text();
                    if (draw % 5 == 0)
                        q.workload = wl::Workload::fft(128);
                    if (draw % 2 == 0)
                        q.device = dev::allDevices()[draw % 6];
                    std::string why =
                        draw % 4 == 0 ? random_text() : "queue full";
                    QueryResult error = makeQueryError(q, kind, why, retry);
                    std::string text = expectMatchesOracle(
                        error, "seed " + std::to_string(seed) + " draw " +
                                   std::to_string(draw));
                    EXPECT_EQ(text.find("requestId") != std::string::npos,
                              echo && !q.requestId.empty())
                        << "draw " << draw;
                    ++draw;
                }
            }
        }
    }
}

TEST(AnswerCodecTest, RandomBytesRoundTrip)
{
    // Free text of any bytes: an error message and an echoed requestId.
    std::mt19937 rng(19);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<int> length(0, 400);
    auto random_text = [&] {
        std::string s(static_cast<std::size_t>(length(rng)), '\0');
        for (char &c : s)
            c = static_cast<char>(byte(rng));
        return s;
    };
    for (int trial = 0; trial < 300; ++trial) {
        Query q;
        q.requestId = random_text();
        q.requestIdEcho = true;
        expectMatchesOracle(
            makeQueryError(q, QueryErrorKind::EvaluationFailed,
                           random_text()),
            "seed 19 trial " + std::to_string(trial));
    }
}

TEST(AnswerCodecTest, HighBytesPackBehindTheLiteralCode)
{
    QueryResult plain = makeQueryError(Query{}, QueryErrorKind::Overloaded,
                                       "ab");
    QueryResult high = makeQueryError(Query{}, QueryErrorKind::Overloaded,
                                      "a\x80\xff" "b");
    expectMatchesOracle(plain, "plain");
    expectMatchesOracle(high, "high");
    // Each byte of 0x80 or above takes the literal code and itself.
    EXPECT_EQ(packed(high).size(), packed(plain).size() + 4);
    EXPECT_EQ(renderAnswer(high)->size(), renderAnswer(plain)->size() + 2);
}

TEST(AnswerCodecTest, NumberRunsOfEveryLengthRoundTrip)
{
    // Every length "%.12g" prints, from "0" to "-1.23456789012e-100".
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> exponent(-320.0, 308.0);
    std::uniform_real_distribution<double> mantissa(-10.0, 10.0);
    std::vector<double> by_length(kGeneralRoom,
                                  std::numeric_limits<double>::quiet_NaN());
    for (double v : {0.0, 1.0, -1.0, 12.0, 0.5, 100.0})
        by_length[general(v, 12).size()] = v;
    for (int i = 0; i < 200000; ++i) {
        double v = mantissa(rng) * std::pow(10.0, exponent(rng));
        if (i % 2)
            v = std::round(v * 1e3) / 1e3;
        by_length[general(v, 12).size()] = v;
    }
    for (std::size_t len = 1; len <= 19; ++len) {
        ASSERT_FALSE(std::isnan(by_length[len])) << len;
        QueryResult result = rowOf(by_length[len]);
        expectMatchesOracle(result, "length " + std::to_string(len));
    }
    // The edges of the number form: zero of either sign, negatives,
    // subnormals, 12-digit mantissas, both sides of "%g"'s switch to
    // scientific (1e-5 against 1e-4, 1e12 against 1e11), the compact
    // exponents' ends, integers below and from 100, and not finite.
    const double inf = std::numeric_limits<double>::infinity();
    for (double v :
         {0.0, -0.0, 1.0, -1.0, -0.5, 63.0, 64.0, 99.0, 100.0, 120.0, 1e5, 1e6,
          123456.789012, 999999.999999, -123456789012.0, 5e-324, -2.5e-320,
          4.94065645841e-320, 2.2250738585072014e-308, 0.000123456789012,
          0.123456789012, 1.23456789012, 9.99999999999e-5, 1e-5, 1e-4,
          1.5e-5, 1e11, 1e12, 999999999999.0, 1e100, -1e-100, 1e308,
          -1.7976931348623157e308, std::numeric_limits<double>::quiet_NaN(),
          inf, -inf})
        expectMatchesOracle(rowOf(v), "value " + general(v, 17));
    // Six numbers a row: each is a header byte and two digits a byte,
    // and an exponent outside -4 to 5 or a sign adds two bytes.
    auto extra = [&](double v) {
        return static_cast<long>(packed(rowOf(v)).size()) -
               static_cast<long>(packed(rowOf(0.0)).size());
    };
    EXPECT_EQ(extra(63.0), 0);                  // one header byte
    EXPECT_EQ(extra(inf), 0);                   // null
    EXPECT_EQ(extra(64.0), 6 * 1);              // 64, x = 1
    EXPECT_EQ(extra(100.0), 6 * 1);             // 1, x = 2
    EXPECT_EQ(extra(0.123456789012), 6 * 6);    // 12 digits, x = -1
    EXPECT_EQ(extra(123456.789012), 6 * 6);     // 12 digits, x = 5
    EXPECT_EQ(extra(1234567.89012), 6 * 8);     // x = 6
    EXPECT_EQ(extra(1.5e-5), 6 * 3);            // 2 digits, x = -5
    EXPECT_EQ(extra(-0.0), 6 * 3);              // signed
    // retryAfterMs's digits are literals, a byte each.
    QueryResult base = makeQueryError(Query{}, QueryErrorKind::Overloaded,
                                      "x", 7);
    std::size_t one_digit = packed(base).size();
    std::uint64_t retry = 1;
    for (std::size_t digits = 1; digits <= 19; ++digits, retry *= 10) {
        QueryResult error = makeQueryError(
            Query{}, QueryErrorKind::Overloaded, "x", retry);
        expectMatchesOracle(error, "digits " + std::to_string(digits));
        EXPECT_EQ(packed(error).size(), one_digit + digits - 1) << digits;
    }
}

TEST(AnswerCodecTest, VocabularyIsAtMost96AsciiStrings)
{
    // 96 codes, 0x80 to 0xDF; the last three open a row record (two)
    // and stand for the byte after them. The schema's 21 fragments and
    // the names from the registries fill 50 of the other 93.
    const std::vector<std::string> &vocab = answerVocabulary();
    EXPECT_LE(vocab.size() + 3, 96u);
    for (const std::string &s : vocab) {
        EXPECT_FALSE(s.empty());
        EXPECT_LE(s.size(), kAnswerExpandSlack) << s;
        for (char c : s)
            EXPECT_LT(static_cast<unsigned char>(c), 0x80) << s;
    }
    for (const char *name :
         {"optimize", "FFT-16384", "bandwidth-1tb", "V6-LX760",
          "deadline_exceeded", "Core i7-960", R"(","retryAfterMs":)"})
        EXPECT_NE(std::find(vocab.begin(), vocab.end(), name), vocab.end())
            << name;
    // A row's members are its record's, not vocabulary strings.
    for (const std::string &s : vocab)
        for (const char *member : {"organization", "feasible", "speedup",
                                   "limiter", "energyNormalized", "AsymCMP",
                                   "22nm", "thermal\""})
            EXPECT_EQ(s.find(member), std::string::npos) << s;
}

TEST(AnswerCodecTest, VocabularyCodesBackToBackRoundTrip)
{
    // One row per organization, node and limiter, feasible or not: the
    // writer names each with one row record, and a row that is not
    // feasible is two bytes, its code and its index.
    std::vector<std::string> orgs;
    for (const wl::Workload &w : dev::table5Workloads())
        for (const core::Organization &org : core::paperOrganizations(w))
            orgs.resize(std::max<std::size_t>(orgs.size(),
                                              org.paperIndex + 1));
    QueryResult result;
    result.query.type = QueryType::Projection;
    result.query.device = dev::DeviceId::Asic;
    for (std::size_t org = 0; org < orgs.size(); ++org) {
        for (std::size_t node = 0; node < itrs::nodeTable().size(); ++node) {
            for (core::Limiter limiter :
                 {core::Limiter::Area, core::Limiter::Power,
                  core::Limiter::Bandwidth, core::Limiter::Thermal}) {
                ResultRow row;
                row.org = static_cast<std::uint8_t>(org);
                row.node = static_cast<std::uint8_t>(node);
                row.feasible = true;
                row.limiter = limiter;
                row.r = row.n = 2.0 + static_cast<double>(org);
                row.speedup = 10.5 + 1e-3 * static_cast<double>(node);
                row.energyNormalized = 0.25 / static_cast<double>(node + 1);
                result.rows.push_back(row);
            }
            ResultRow no;
            no.org = static_cast<std::uint8_t>(org);
            no.node = static_cast<std::uint8_t>(node);
            result.rows.push_back(no);
            expectMatchesOracle(result, "rows " +
                                            std::to_string(result.rows.size()));
            std::size_t with = packed(result).size();
            result.rows.push_back(no);
            EXPECT_EQ(packed(result).size(), with + 2);
            result.rows.pop_back();
        }
    }
    // Every query type, workload, scenario and device in the echo.
    for (QueryType type : allQueryTypes())
        for (const wl::Workload &w : dev::table5Workloads())
            for (const core::Scenario &s : core::allScenarios())
                for (dev::DeviceId id : dev::allDevices()) {
                    QueryResult echo;
                    echo.query.type = type;
                    echo.query.workload = w;
                    echo.query.scenario = s.name;
                    echo.query.device = id;
                    expectMatchesOracle(echo, queryTypeName(type) + " " +
                                                  w.name() + " " + s.name);
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
    std::string text = expectMatchesOracle(error, "overloaded");
    ASSERT_NE(text.find(R"("requestId":"client-7f3a")"), std::string::npos);
    std::shared_ptr<const Answer> answer_block = renderAnswer(error);
    const Answer &answer = *answer_block;
    EXPECT_FALSE(answer.ok());
    EXPECT_EQ(answer.errorKind, QueryErrorKind::Overloaded);
    EXPECT_LT(answer.packedBytes(), text.size());
}

TEST(AnswerCodecTest, AnswerSplicesIntoAJsonWriter)
{
    Query q;
    QueryResult ok = evaluateQuery(q);
    QueryResult error =
        makeQueryError(q, QueryErrorKind::DeadlineExceeded, "late");
    std::shared_ptr<const Answer> a_block = renderAnswer(ok);
    const Answer &a = *a_block;
    std::shared_ptr<const Answer> b_block = renderAnswer(error);
    const Answer &b = *b_block;
    std::string out = "x";
    {
        JsonWriter json(out);
        json.beginArray();
        a.writeTo(json);
        b.writeTo(json);
        json.endArray();
    }
    EXPECT_EQ(out, "x[" + answerJson(ok) + "," + answerJson(error) + "]");
}

TEST(AnswerCodecTest, GoldenAnswersRoundTripAndPackAtLeast6_5x)
{
    std::size_t text_bytes = 0;
    std::size_t packed_bytes = 0;
    for (const Query &q : goldenQueries()) {
        QueryResult result = evaluateQuery(q);
        std::string text = result.toJson();
        std::shared_ptr<const Answer> answer_block = renderAnswer(result);
        const Answer &answer = *answer_block;
        EXPECT_EQ(answer.size(), text.size());
        std::string out;
        answer.appendTo(out);
        EXPECT_EQ(out, text);
        text_bytes += text.size();
        packed_bytes += answer.packedBytes();
    }
    double ratio = static_cast<double>(text_bytes) /
                   static_cast<double>(packed_bytes);
    // 28,941 -> 4,385 bytes, 6.60x.
    EXPECT_GE(ratio, 6.5) << text_bytes << " -> " << packed_bytes;
}

} // namespace
} // namespace svc
} // namespace hcm
