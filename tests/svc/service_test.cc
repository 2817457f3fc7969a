/** @file Tests for the serve loop's control verbs and error framing:
 *  format validation on trace/profile, blank-line termination of the
 *  Prometheus block, and the served count excluding error lines. */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "svc/engine.hh"
#include "svc/fault.hh"
#include "svc/service.hh"
#include "util/format.hh"

namespace hcm {
namespace svc {
namespace {

/** Split serve output into lines, dropping the trailing empty piece. */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines = split(text, '\n');
    while (!lines.empty() && lines.back().empty())
        lines.pop_back();
    return lines;
}

EngineOptions
smallEngine()
{
    EngineOptions opts;
    opts.threads = 2;
    opts.cacheCapacity = 16;
    return opts;
}

/** Run one serve session over @p input; returns (served, lines). */
std::size_t
serveLines(const std::string &input, std::vector<std::string> *lines)
{
    QueryEngine engine(smallEngine());
    std::istringstream in(input);
    std::ostringstream out;
    std::size_t served = runServe(in, out, engine);
    if (lines)
        *lines = splitLines(out.str());
    return served;
}

TEST(ServeControlVerbTest, TraceRejectsNonJsonFormat)
{
    std::vector<std::string> lines;
    serveLines("{\"type\":\"trace\",\"format\":\"xml\"}\n", &lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "{\"error\":\"trace format must be json\"}");
}

TEST(ServeControlVerbTest, TraceRejectsNonStringFormat)
{
    std::vector<std::string> lines;
    serveLines("{\"type\":\"trace\",\"format\":7}\n", &lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "{\"error\":\"trace format must be json\"}");
}

TEST(ServeControlVerbTest, TraceAcceptsExplicitJsonFormat)
{
    std::vector<std::string> lines;
    serveLines("{\"type\":\"trace\",\"format\":\"json\"}\n", &lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"traceEvents\""), std::string::npos);
}

TEST(ServeControlVerbTest, ProfileRejectsNonJsonFormat)
{
    std::vector<std::string> lines;
    serveLines("{\"type\":\"profile\",\"format\":\"text\"}\n", &lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "{\"error\":\"profile format must be json\"}");
}

TEST(ServeControlVerbTest, ProfileRejectsNonStringFormat)
{
    std::vector<std::string> lines;
    serveLines("{\"type\":\"profile\",\"format\":false}\n", &lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "{\"error\":\"profile format must be json\"}");
}

TEST(ServeControlVerbTest, MetricsRejectsUnknownFormat)
{
    std::vector<std::string> lines;
    serveLines("{\"type\":\"metrics\",\"format\":\"yaml\"}\n", &lines);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0],
              "{\"error\":\"metrics format must be json or prom\"}");
}

// The Prometheus block is multi-line, so line-oriented clients need
// the trailing blank line to find the end of the response.
TEST(ServeControlVerbTest, PromBlockEndsWithBlankLine)
{
    QueryEngine engine(smallEngine());
    std::istringstream in(
        "{\"type\":\"metrics\",\"format\":\"prom\"}\n"
        "{\"type\":\"metrics\"}\n");
    std::ostringstream out;
    runServe(in, out, engine);
    std::string text = out.str();
    std::size_t gap = text.find("\n\n");
    ASSERT_NE(gap, std::string::npos);
    // Everything before the gap is the prom block; the JSON metrics
    // response follows immediately after it.
    EXPECT_NE(text.substr(0, gap).find("hcm_svc_queries_total"),
              std::string::npos);
    EXPECT_EQ(text.compare(gap + 2, 15, "{\"totalQueries\""), 0)
        << text.substr(gap + 2, 40);
}

// runBatch's "metrics" member is the engine's own document, written
// after every answer resolved; the rest is the results-only bytes.
TEST(RunBatchTest, MetricsMemberIsTheEngineDocument)
{
    const std::string batch =
        R"([{"type":"optimize","workload":"mmm","f":0.9,"node":22},)"
        R"({"type":"energy","workload":"mmm","f":0.9,"node":11},)"
        R"({"type":"optimize","workload":"mmm","f":0.9,"node":22}])";
    std::string error;
    QueryEngine reference(smallEngine());
    std::ostringstream results_only;
    ASSERT_TRUE(runBatch(batch, reference, results_only, &error, true))
        << error;
    QueryEngine engine(smallEngine());
    std::ostringstream out;
    ASSERT_TRUE(runBatch(batch, engine, out, &error)) << error;
    std::string doc;
    {
        JsonWriter json(doc);
        engine.writeMetricsJson(json);
    }
    std::string results = results_only.str();
    ASSERT_EQ(results.substr(results.size() - 2), "}\n");
    EXPECT_EQ(out.str(), results.substr(0, results.size() - 2) +
                             ",\"metrics\":" + doc + "}\n");
}

// served counts successful evaluations only: parse failures and error
// results (here a fault-injected evaluation) answer with an error line
// but do not count.
TEST(ServeCountTest, ErrorLinesDoNotCount)
{
    ASSERT_TRUE(FaultInjector::instance().configure("eval:throw:nth=1"));
    QueryEngine engine(smallEngine());
    std::istringstream in(
        "this is not json\n"
        "{\"type\":\"optimize\",\"workload\":\"mmm\",\"f\":0.9}\n"
        "{\"type\":\"optimize\",\"workload\":\"mmm\",\"f\":0.9}\n");
    std::ostringstream out;
    std::size_t served = runServe(in, out, engine);
    FaultInjector::instance().reset();

    std::vector<std::string> lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("\"error\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"type\":\"evaluation_failed\""),
              std::string::npos);
    EXPECT_NE(lines[2].find("\"rows\":"), std::string::npos);
    EXPECT_EQ(served, 1u);
}

} // namespace
} // namespace svc
} // namespace hcm
