/** @file Tests for the JSON request wire format. */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/scenario.hh"
#include "devices/measured.hh"
#include "itrs/scaling.hh"
#include "svc/request.hh"

namespace hcm {
namespace svc {
namespace {

TEST(RequestParseTest, MinimalRequestUsesDefaults)
{
    RequestParse parsed =
        parseQueryRequestText(R"({"type":"optimize"})");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.query.type, QueryType::Optimize);
    EXPECT_EQ(parsed.query.workload.name(), "FFT-1024");
    EXPECT_DOUBLE_EQ(parsed.query.f, 0.99);
    EXPECT_EQ(parsed.query.scenario, "baseline");
    EXPECT_DOUBLE_EQ(parsed.query.node, 22.0);
    EXPECT_FALSE(parsed.query.device);
}

TEST(RequestParseTest, FullRequestParsesEveryField)
{
    RequestParse parsed = parseQueryRequestText(
        R"({"type":"pareto","workload":"mmm","f":0.999,)"
        R"("scenario":"power-10w","node":11,"device":"gtx480"})");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.query.type, QueryType::Pareto);
    EXPECT_EQ(parsed.query.workload, wl::Workload::mmm());
    EXPECT_DOUBLE_EQ(parsed.query.f, 0.999);
    EXPECT_EQ(parsed.query.scenario, "power-10w");
    EXPECT_DOUBLE_EQ(parsed.query.node, 11.0);
    EXPECT_EQ(parsed.query.device, dev::DeviceId::Gtx480);
}

TEST(RequestParseTest, RejectsBadInputsWithSpecificErrors)
{
    struct Case
    {
        const char *text;
        const char *needle;
    };
    const Case cases[] = {
        {"[1,2]", "must be a JSON object"},
        {"{\"workload\":\"mmm\"}", "'type'"},
        {"{\"type\":\"frobnicate\"}", "unknown query type"},
        {"{\"type\":\"optimize\",\"workload\":\"doom\"}",
         "unknown workload"},
        {"{\"type\":\"optimize\",\"workload\":\"fft:1000\"}",
         "power of two"},
        // Well spelled, but Table 5 calibrates only FFT-64/1024/16384:
        // these used to pass and then abort the evaluating process.
        {"{\"type\":\"optimize\",\"workload\":\"fft:2\"}",
         "no Table 5 calibration for FFT-2"},
        {"{\"type\":\"optimize\",\"workload\":\"fft:128\"}",
         "calibrated FFT sizes: 64, 1024, 16384"},
        {"{\"type\":\"optimize\",\"workload\":\"fft:4096\"}",
         "no Table 5 calibration"},
        {"{\"type\":\"optimize\",\"f\":1.5}", "[0, 1]"},
        {"{\"type\":\"optimize\",\"f\":\"high\"}", "must be a number"},
        {"{\"type\":\"optimize\",\"f\":\" 0.5\"}", "must be a number"},
        {"{\"type\":\"optimize\",\"f\":nan}", "malformed JSON"},
        {"{\"type\":\"optimize\",\"scenario\":\"mars\"}",
         "unknown scenario"},
        {"{\"type\":\"optimize\",\"node\":14}", "unknown node"},
        {"{\"type\":\"optimize\",\"device\":\"tpu\"}",
         "unknown device"},
        {"{\"type\":", "malformed JSON"},
        // Numbers outside the JSON grammar, and one that overflows a
        // double: these used to read as 0.9, 22, 22 and inf.
        {"{\"type\":\"optimize\",\"f\":.9}", "malformed JSON"},
        {"{\"type\":\"optimize\",\"node\":022}", "malformed JSON"},
        {"{\"type\":\"optimize\",\"node\":22.}", "malformed JSON"},
        {"{\"type\":\"optimize\",\"node\":1e400}", "out of range"},
        // A deadline whose nanoseconds overflow 64 bits (undefined
        // behaviour when cast), and one under a nanosecond, which
        // truncated to 0: "no deadline".
        {"{\"type\":\"optimize\",\"deadlineMs\":1e300}", "2^64 ns"},
        {"{\"type\":\"optimize\",\"deadlineMs\":1e-7}", "1 ns"},
    };
    for (const Case &c : cases) {
        RequestParse parsed = parseQueryRequestText(c.text);
        EXPECT_FALSE(parsed.ok) << c.text;
        EXPECT_NE(parsed.error.find(c.needle), std::string::npos)
            << c.text << " -> " << parsed.error;
    }
}

TEST(RequestParseTest, DeadlineMsParsesToNanoseconds)
{
    RequestParse parsed = parseQueryRequestText(
        R"({"type":"optimize","deadlineMs":250})");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.query.deadlineNs, 250'000'000u);

    // Sub-millisecond deadlines survive the conversion.
    parsed = parseQueryRequestText(
        R"({"type":"optimize","deadlineMs":0.5})");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.query.deadlineNs, 500'000u);

    // Absent means no per-request deadline.
    parsed = parseQueryRequestText(R"({"type":"optimize"})");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.query.deadlineNs, 0u);
}

TEST(RequestParseTest, DeadlineMsRejectsNonPositiveAndNonNumeric)
{
    struct Case
    {
        const char *text;
        const char *needle;
    };
    const Case cases[] = {
        {R"({"type":"optimize","deadlineMs":"fast"})",
         "must be a number"},
        {R"({"type":"optimize","deadlineMs":0})", "must be > 0"},
        {R"({"type":"optimize","deadlineMs":-10})", "must be > 0"},
    };
    for (const Case &c : cases) {
        RequestParse parsed = parseQueryRequestText(c.text);
        EXPECT_FALSE(parsed.ok) << c.text;
        EXPECT_NE(parsed.error.find(c.needle), std::string::npos)
            << c.text << " -> " << parsed.error;
    }
}

TEST(RequestParseTest, WorkloadSpecsMatchCliVocabulary)
{
    std::string error;
    EXPECT_EQ(parseWorkloadSpec("mmm", &error), wl::Workload::mmm());
    EXPECT_EQ(parseWorkloadSpec("MMM", &error), wl::Workload::mmm());
    EXPECT_EQ(parseWorkloadSpec("bs", &error),
              wl::Workload::blackScholes());
    EXPECT_EQ(parseWorkloadSpec("blackscholes", &error),
              wl::Workload::blackScholes());
    EXPECT_EQ(parseWorkloadSpec("fft", &error),
              wl::Workload::fft(1024));
    EXPECT_EQ(parseWorkloadSpec("fft:16384", &error),
              wl::Workload::fft(16384));
    EXPECT_FALSE(parseModelWorkload("fft:4096", &error));
    EXPECT_FALSE(parseWorkloadSpec("fft:0", &error));
    EXPECT_FALSE(parseWorkloadSpec("fft:", &error));
    EXPECT_FALSE(parseWorkloadSpec("fft:12", &error));
    // Regression: strtoul accepted sign characters and trailing junk.
    EXPECT_FALSE(parseWorkloadSpec("fft:1024abc", &error));
    EXPECT_FALSE(parseWorkloadSpec("fft:+8", &error));
    EXPECT_FALSE(parseWorkloadSpec("fft:-8", &error));
    EXPECT_FALSE(parseWorkloadSpec("fft:99999999999999999999999", &error));
}

TEST(RequestParseTest, ScenarioNamesNormalizeThroughTheRegistry)
{
    // Mixed-case requests resolve case-insensitively (same registry as
    // the sweep parser) and normalize to the canonical spelling so the
    // memo cache keys differently-cased requests identically.
    RequestParse parsed = parseQueryRequestText(
        R"({"type":"optimize","scenario":"Power-200W"})");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.query.scenario, "power-200w");

    for (const core::Scenario &s : core::allScenarios()) {
        RequestParse p = parseQueryRequestText(
            R"({"type":"optimize","scenario":")" + s.name + R"("})");
        ASSERT_TRUE(p.ok) << s.name << ": " << p.error;
        EXPECT_EQ(p.query.scenario, s.name);
    }
}

TEST(RequestParseTest, DeviceNamesAreCaseInsensitive)
{
    EXPECT_EQ(parseDeviceName("ASIC"), dev::DeviceId::Asic);
    EXPECT_EQ(parseDeviceName("Lx760"), dev::DeviceId::Lx760);
    EXPECT_EQ(parseDeviceName("r5870"), dev::DeviceId::R5870);
    EXPECT_FALSE(parseDeviceName("corei7")); // not a U-core fabric
}

TEST(BatchDocumentTest, AcceptsArrayAndWrappedForms)
{
    std::string error;
    auto bare = parseBatchDocument(
        R"([{"type":"optimize"},{"type":"energy"}])", &error);
    ASSERT_TRUE(bare) << error;
    EXPECT_EQ(bare->queries.size(), 2u);

    auto wrapped = parseBatchDocument(
        R"({"requests":[{"type":"pareto"}]})", &error);
    ASSERT_TRUE(wrapped) << error;
    ASSERT_EQ(wrapped->queries.size(), 1u);
    EXPECT_EQ(wrapped->queries[0].type, QueryType::Pareto);

    auto empty = parseBatchDocument("[]", &error);
    ASSERT_TRUE(empty);
    EXPECT_TRUE(empty->queries.empty());
}

TEST(BatchDocumentTest, ReportsOffendingRequestIndex)
{
    std::string error;
    auto doc = parseBatchDocument(
        R"([{"type":"optimize"},{"type":"warp-drive"}])", &error);
    EXPECT_FALSE(doc);
    EXPECT_NE(error.find("request 1"), std::string::npos) << error;
}

TEST(BatchDocumentTest, RejectsNonBatchShapes)
{
    std::string error;
    EXPECT_FALSE(parseBatchDocument("42", &error));
    EXPECT_FALSE(parseBatchDocument(R"({"queries":[]})", &error));
    EXPECT_FALSE(parseBatchDocument("{", &error));
}

TEST(BatchDocumentTest, TextsAreTheRawBytesOfTheQueries)
{
    std::string error;
    auto batch = parseBatchDocument(
        "[ {\"type\":\"optimize\",\"f\":0.123456789012345678} ,\f"
        "{\"type\":\"energy\"}\n]",
        &error);
    ASSERT_TRUE(batch) << error;
    ASSERT_EQ(batch->texts.size(), 2u);
    EXPECT_EQ(batch->texts[0],
              R"({"type":"optimize","f":0.123456789012345678})");
    EXPECT_EQ(batch->texts[1], R"({"type":"energy"})");
    ASSERT_EQ(batch->queries.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_EQ(batch->queries[i].canonicalKey(),
                  parseQueryRequestText(batch->texts[i])
                      .query.canonicalKey());
}

TEST(BatchDocumentTest, RequestsAreTheLastMemberByDecodedKey)
{
    // The splitter follows JsonValue::find(): keys compare decoded,
    // and a later duplicate replaces an earlier one.
    for (const char *doc :
         {R"({"requests":[],"requests":[{"type":"pareto"}]})",
          R"({"requests":[{"type":"optimize"}],)"
          R"("requests":[{"type":"pareto"}]})",
          R"({"\u0072equests":[{"type":"pareto"}]})",
          R"({"x":{"requests":[]},"requests":[{"type":"pareto"}]})",
          "{ \"requests\" :\t[ ] ,\n\"requests\"\r: "
          "[ {\"type\":\"pareto\"} ] }"}) {
        std::string error;
        auto batch = parseBatchDocument(doc, &error);
        ASSERT_TRUE(batch) << doc << ": " << error;
        ASSERT_EQ(batch->queries.size(), 1u) << doc;
        EXPECT_EQ(batch->queries[0].type, QueryType::Pareto) << doc;
        EXPECT_EQ(batch->texts,
                  std::vector<std::string>{R"({"type":"pareto"})"})
            << doc;
        auto texts = splitBatchRequestTexts(doc);
        ASSERT_TRUE(texts) << doc;
        EXPECT_EQ(*texts, batch->texts) << doc;
    }
}

TEST(BatchDocumentTest, SplitterAnswersOnlyForBatchShapes)
{
    EXPECT_FALSE(splitBatchRequestTexts(R"({"type":"optimize"})"));
    EXPECT_FALSE(splitBatchRequestTexts("[{"));
    auto not_array = splitBatchRequestTexts(R"({"requests":5})");
    ASSERT_TRUE(not_array);
    EXPECT_TRUE(not_array->empty());
    auto scalars = splitBatchRequestTexts("[1,true, \"x\" ,null]");
    ASSERT_TRUE(scalars);
    EXPECT_EQ(*scalars,
              (std::vector<std::string>{"1", "true", "\"x\"", "null"}));
}

TEST(WireAnswerTest, ErrorBodyAndErrorType)
{
    EXPECT_EQ(errorBody("bad \"input\""), R"({"error":"bad \"input\""})");
    EXPECT_EQ(responseErrorType(R"({"query":{"type":"optimize"}})"), "");
    EXPECT_EQ(responseErrorType(errorBody("frame too large")), "error");
    EXPECT_EQ(responseErrorType(
                  R"({"error":"queue full","type":"overloaded"})"),
              "overloaded");
    EXPECT_EQ(responseErrorType("{\"error\":"), "error");
}

TEST(RequestIdParseTest, ClientSuppliedIdIsKeptAndMarkedForEcho)
{
    RequestParse parsed = parseQueryRequestText(
        R"({"type":"optimize","requestId":"abc-12.3_X"})");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.query.requestId, "abc-12.3_X");
    EXPECT_TRUE(parsed.query.requestIdEcho);
}

TEST(RequestIdParseTest, AbsentIdLeavesNoEcho)
{
    RequestParse parsed =
        parseQueryRequestText(R"({"type":"optimize"})");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_TRUE(parsed.query.requestId.empty());
    EXPECT_FALSE(parsed.query.requestIdEcho);
}

TEST(RequestIdParseTest, RejectsMalformedIds)
{
    const char *bad[] = {
        R"({"type":"optimize","requestId":42})",
        R"({"type":"optimize","requestId":""})",
        R"({"type":"optimize","requestId":"has space"})",
        R"({"type":"optimize","requestId":"quote\""})",
    };
    for (const char *text : bad) {
        RequestParse parsed = parseQueryRequestText(text);
        EXPECT_FALSE(parsed.ok) << text;
        EXPECT_NE(parsed.error.find("requestId"), std::string::npos)
            << parsed.error;
    }
    // Oversized: one past the wire limit.
    std::string big = R"({"type":"optimize","requestId":")" +
                      std::string(65, 'a') + "\"}";
    EXPECT_FALSE(parseQueryRequestText(big).ok);
}

TEST(InjectRequestIdTest, SplicesAfterTheOpeningBrace)
{
    auto out = injectRequestId(R"({"type":"optimize"})", "rid1");
    ASSERT_TRUE(out);
    EXPECT_EQ(*out, R"({"requestId":"rid1","type":"optimize"})");
    RequestParse parsed = parseQueryRequestText(*out);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.query.requestId, "rid1");
}

TEST(InjectRequestIdTest, EmptyObjectGetsNoTrailingComma)
{
    auto out = injectRequestId("{}", "rid1");
    ASSERT_TRUE(out);
    EXPECT_EQ(*out, R"({"requestId":"rid1"})");
    auto spaced = injectRequestId("  { }", "rid2");
    ASSERT_TRUE(spaced);
    EXPECT_EQ(*spaced, "  {\"requestId\":\"rid2\" }");
}

TEST(InjectRequestIdTest, NonObjectsAreLeftAlone)
{
    EXPECT_FALSE(injectRequestId("[1,2]", "rid1"));
    EXPECT_FALSE(injectRequestId("42", "rid1"));
    EXPECT_FALSE(injectRequestId("", "rid1"));
}

TEST(InjectRequestIdTest, ExistingIdWinsUnderLastOccurrenceRule)
{
    // The splice lands at the FRONT, so a client-authored id later in
    // the object survives the duplicate-keys-keep-last parse rule.
    auto out = injectRequestId(
        R"({"type":"optimize","requestId":"client"})", "minted");
    ASSERT_TRUE(out);
    RequestParse parsed = parseQueryRequestText(*out);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.query.requestId, "client");
}

/** The wire spelling of a Table 5 workload. */
std::string
spelling(const wl::Workload &w)
{
    switch (w.kind()) {
      case wl::Kind::MMM:
        return "mmm";
      case wl::Kind::BlackScholes:
        return "bs";
      case wl::Kind::FFT:
        return "fft:" + std::to_string(w.size());
    }
    return "";
}

TEST(RequestParseTest, EveryCalibratedInputEvaluatesAndNoOtherFftSize)
{
    // Every Table 5 workload x query type x scenario x Table 6 node x
    // f edge parses and evaluates to rows: the calibration check
    // rejects nothing the model can answer.
    const char *types[] = {"optimize", "projection", "energy", "pareto"};
    const char *fractions[] = {"0", "0.5", "0.999", "1"};
    std::size_t evaluated = 0;
    std::string error;
    for (const wl::Workload &w : dev::table5Workloads()) {
        ASSERT_EQ(parseModelWorkload(spelling(w), &error), w) << error;
        for (const char *type : types)
            for (const core::Scenario &scenario : core::allScenarios())
                for (const itrs::NodeParams &node : itrs::nodeTable())
                    for (const char *f : fractions) {
                        std::string request =
                            std::string("{\"type\":\"") + type +
                            "\",\"workload\":\"" + spelling(w) +
                            "\",\"scenario\":\"" + scenario.name +
                            "\",\"node\":" +
                            std::to_string(static_cast<int>(node.nodeNm)) +
                            ",\"f\":" + f + "}";
                        RequestParse parsed = parseQueryRequestText(request);
                        ASSERT_TRUE(parsed.ok) << request << parsed.error;
                        QueryResult result = evaluateQuery(parsed.query);
                        ASSERT_TRUE(result.ok()) << request << result.error;
                        // A frontier is empty when no design fits the
                        // budget (power-10w at 40nm).
                        EXPECT_TRUE(!result.rows.empty() ||
                                    parsed.query.type == QueryType::Pareto)
                            << request;
                        ++evaluated;
                    }
    }
    EXPECT_EQ(evaluated, 4000u);

    // Every other power of two up to 2^20 is spelled right but has no
    // calibration, so it never reaches the model.
    const auto &sizes = dev::table5FftSizes();
    for (std::size_t n = 2; n <= (1u << 20); n *= 2) {
        std::string spec = "fft:" + std::to_string(n);
        bool calibrated =
            std::find(sizes.begin(), sizes.end(), n) != sizes.end();
        EXPECT_TRUE(parseWorkloadSpec(spec, &error)) << spec;
        EXPECT_EQ(parseModelWorkload(spec, &error).has_value(),
                  calibrated)
            << spec;
    }
}

} // namespace
} // namespace svc
} // namespace hcm
