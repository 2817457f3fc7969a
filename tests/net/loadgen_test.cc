#include "net/loadgen.hh"

#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

#include <gtest/gtest.h>

#include "net/server.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace net {
namespace {

TEST(ParseMixTest, SplitsJsonlIntoLines)
{
    std::string error;
    auto requests = parseMixText("{\"type\":\"optimize\"}\n"
                                 "\n"
                                 "  {\"type\":\"energy\"}  \r\n",
                                 &error);
    ASSERT_EQ(requests.size(), 2u);
    EXPECT_EQ(requests[0], "{\"type\":\"optimize\"}");
    EXPECT_EQ(requests[1], "{\"type\":\"energy\"}");
}

TEST(ParseMixTest, SlicesBatchArrayVerbatim)
{
    // The raw member bytes must survive untouched — f re-serialized
    // through the %.12g writer would be a different query.
    std::string error;
    auto requests = parseMixText(
        R"([{"type":"optimize","f":0.123456789012345678},)"
        R"({"type":"energy"}])",
        &error);
    ASSERT_EQ(requests.size(), 2u);
    EXPECT_EQ(requests[0],
              R"({"type":"optimize","f":0.123456789012345678})");
    EXPECT_EQ(requests[1], R"({"type":"energy"})");
}

TEST(ParseMixTest, AcceptsRequestsWrapperDocument)
{
    std::string error;
    auto requests = parseMixText(
        R"({"requests":[{"type":"optimize"},{"type":"pareto"}]})",
        &error);
    ASSERT_EQ(requests.size(), 2u);
    EXPECT_EQ(requests[1], R"({"type":"pareto"})");
}

TEST(ParseMixTest, UsesTheRequestsMemberTheParserUses)
{
    // Duplicate keys keep the last occurrence, keys compare decoded:
    // the replayed members are the ones `hcm batch` would answer.
    std::string error;
    auto requests = parseMixText(
        R"({"requests":[{"type":"optimize"}],)"
        R"("\u0072equests":[{"type":"pareto"},{"type":"energy"}]})",
        &error);
    ASSERT_EQ(requests.size(), 2u) << error;
    EXPECT_EQ(requests[0], R"({"type":"pareto"})");
    EXPECT_EQ(requests[1], R"({"type":"energy"})");
}

TEST(ParseMixTest, EmptyInputIsAnError)
{
    std::string error;
    auto requests = parseMixText("\n  \n", &error);
    EXPECT_TRUE(requests.empty());
    EXPECT_FALSE(error.empty());
}

TEST(LoadGenTest, ReplaysAgainstAServerAndCounts)
{
    TcpServer server(TcpServerOptions{},
                     [](const std::string &request) {
                         // Pretend every other request overloads.
                         if (request.find("\"f\":0.5") !=
                             std::string::npos)
                             return std::string(
                                 R"({"error":"queue full",)"
                                 R"("type":"overloaded",)"
                                 R"("retryAfterMs":5})");
                         return R"({"rows":[]})" + std::string();
                     });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    std::vector<std::string> requests = {
        R"({"type":"optimize","f":0.9})",
        R"({"type":"optimize","f":0.5})",
        R"({"type":"optimize","f":0.9})",
        R"({"type":"optimize","f":0.5})",
    };
    LoadGenOptions opts;
    opts.port = server.port();
    opts.concurrency = 2;
    opts.repeat = 2;
    LoadGenReport report;
    ASSERT_TRUE(runLoadGen(requests, opts, &report, &error)) << error;
    server.stop();

    EXPECT_EQ(report.sent, 8u);
    EXPECT_EQ(report.ok, 4u);
    EXPECT_EQ(report.errors, 4u);
    EXPECT_EQ(report.shed, 4u);
    EXPECT_EQ(report.shardUnavailable, 0u);
    EXPECT_EQ(report.transportFailures, 0u);
    EXPECT_GT(report.p50Ms, 0.0);
    EXPECT_GE(report.p99Ms, report.p50Ms);
    EXPECT_GE(report.maxMs, report.p99Ms);
    EXPECT_GT(report.elapsedSec, 0.0);
}

TEST(LoadGenTest, DeadEndpointCountsTransportFailures)
{
    // Grab-and-release a port so nothing is listening there.
    std::string error;
    auto [probe, port] = listenOn("127.0.0.1", 0, &error);
    ASSERT_TRUE(probe.valid()) << error;
    probe.close();

    LoadGenOptions opts;
    opts.port = port;
    opts.concurrency = 1;
    opts.timeoutMs = 500;
    LoadGenReport report;
    std::vector<std::string> requests = {R"({"type":"optimize"})"};
    ASSERT_TRUE(runLoadGen(requests, opts, &report, &error));
    EXPECT_EQ(report.sent, 1u);
    EXPECT_EQ(report.transportFailures, 1u);
    EXPECT_EQ(report.errors, 1u);
    EXPECT_EQ(report.ok, 0u);
}

TEST(LoadGenTest, ReportFormatsAsJson)
{
    LoadGenReport report;
    report.sent = 10;
    report.ok = 9;
    report.errors = 1;
    report.shed = 1;
    report.p50Ms = 1.5;
    std::string text = formatLoadGenReport(report);
    EXPECT_EQ(text.rfind("{\"sent\":10,", 0), 0u);
    EXPECT_NE(text.find("\"latencyMs\":{\"p50\":1.5"),
              std::string::npos);
    EXPECT_EQ(text.back(), '\n');
}

/** Temp path helper: unique per test, removed on destruction. */
struct TempFile
{
    explicit TempFile(const char *name)
        : path(::testing::TempDir() + name)
    {
    }
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

TEST(LoadGenTest, MintsRequestIdsAndWritesJoinableSamples)
{
    // Echo the request back so the test can see the spliced bytes.
    TcpServer server(TcpServerOptions{},
                     [](const std::string &request) { return request; });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    TempFile samples("loadgen_samples.jsonl");
    std::vector<std::string> requests = {
        R"({"type":"optimize","f":0.9})",
        R"({"type":"optimize","requestId":"client-id"})",
    };
    LoadGenOptions opts;
    opts.port = server.port();
    opts.concurrency = 1;
    opts.samplesPath = samples.path;
    LoadGenReport report;
    ASSERT_TRUE(runLoadGen(requests, opts, &report, &error)) << error;
    server.stop();

    std::ifstream in(samples.path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::vector<std::string> rids;
    std::size_t index = 0;
    while (std::getline(in, line)) {
        auto doc = JsonValue::parse(line, &error);
        ASSERT_TRUE(doc) << error << ": " << line;
        EXPECT_EQ(doc->find("index")->asNumber(),
                  static_cast<double>(index));
        EXPECT_TRUE(doc->find("latencyMs")->isNumber());
        EXPECT_EQ(doc->find("outcome")->asString(), "ok");
        rids.push_back(doc->find("requestId")->asString());
        ++index;
    }
    ASSERT_EQ(index, 2u);
    // Entry 0 had no id: a 16-hex-char one was minted for it.
    EXPECT_EQ(rids[0].size(), 16u);
    // Entry 1 carried its own: recorded verbatim, never replaced.
    EXPECT_EQ(rids[1], "client-id");
}

TEST(LoadGenTest, TaggingOffKeepsRequestBytesVerbatim)
{
    std::vector<std::string> seen;
    std::mutex mu;
    TcpServer server(TcpServerOptions{},
                     [&](const std::string &request) {
                         std::lock_guard<std::mutex> lock(mu);
                         seen.push_back(request);
                         return std::string(R"({"rows":[]})");
                     });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    TempFile samples("loadgen_untagged.jsonl");
    std::vector<std::string> requests = {
        R"({"type":"optimize","f":0.9})"};
    LoadGenOptions opts;
    opts.port = server.port();
    opts.concurrency = 1;
    opts.tagRequestIds = false;
    opts.samplesPath = samples.path;
    LoadGenReport report;
    ASSERT_TRUE(runLoadGen(requests, opts, &report, &error)) << error;
    server.stop();

    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], requests[0]);
    std::ifstream in(samples.path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    auto doc = JsonValue::parse(line, &error);
    ASSERT_TRUE(doc) << error;
    // No id to record: samples carry the "-" placeholder.
    EXPECT_EQ(doc->find("requestId")->asString(), "-");
}

TEST(LoadGenTest, TaggedOutputMatchesUntaggedByteForByte)
{
    // The byte-identity contract behind the CI cmp check: minted ids
    // ride the request, never the response.
    TcpServer server(
        TcpServerOptions{}, [](const std::string &) {
            // Success bodies never depend on the id; errors only echo
            // CLIENT-supplied ids, and a loadgen-minted one counts as
            // client-supplied only on the error path, which this
            // handler never takes.
            return std::string(R"({"rows":[]})");
        });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    std::vector<std::string> requests = {
        R"({"type":"optimize","f":0.9})"};
    TempFile tagged("loadgen_tagged_out.json");
    TempFile untagged("loadgen_untagged_out.json");
    for (bool tag : {true, false}) {
        LoadGenOptions opts;
        opts.port = server.port();
        opts.concurrency = 1;
        opts.tagRequestIds = tag;
        opts.outputPath = tag ? tagged.path : untagged.path;
        LoadGenReport report;
        ASSERT_TRUE(runLoadGen(requests, opts, &report, &error))
            << error;
    }
    server.stop();

    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream oss;
        oss << in.rdbuf();
        return oss.str();
    };
    EXPECT_EQ(slurp(tagged.path), slurp(untagged.path));
}

} // namespace
} // namespace net
} // namespace hcm
