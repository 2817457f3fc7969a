/** @file Golden answer bytes: every way an answer leaves the service
 *  (a direct evaluateQuery() render, an engine miss, an engine hit,
 *  the router's batch body, a front door's batch body over three
 *  shards, and `hcm batch --results-only`) must
 *  reproduce data/answers_golden.json byte for byte. The golden file
 *  is `hcm batch data/answers_mix.json --results-only` as rendered by
 *  the snprintf("%.12g") writer, before answers were memoized as
 *  bytes; regenerate it only for an intended change of wire format. */

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/scenario.hh"
#include "net/front_door.hh"
#include "svc/engine.hh"
#include "svc/request.hh"
#include "svc/router.hh"
#include "svc/service.hh"

namespace hcm {
namespace svc {
namespace {

std::string
readData(const std::string &name)
{
    std::ifstream in(std::string(HCM_SVC_DATA_DIR) + "/" + name,
                     std::ios::binary);
    EXPECT_TRUE(in) << name;
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/** The --results-only document around per-query answer bytes. */
std::string
resultsDocument(const std::vector<std::string> &answers)
{
    std::string doc = "{\"results\":[";
    for (std::size_t i = 0; i < answers.size(); ++i) {
        if (i > 0)
            doc += ",";
        doc += answers[i];
    }
    return doc + "]}\n";
}

/** An answer's bytes, read the way the servers read them. */
std::string
textOf(const Answer &answer)
{
    std::string text;
    answer.appendTo(text);
    return text;
}

std::string
resultsDocument(const std::vector<QueryEngine::ResultPtr> &results)
{
    std::vector<std::string> answers;
    for (const QueryEngine::ResultPtr &result : results)
        answers.push_back(textOf(*result));
    return resultsDocument(answers);
}

class AnswersGoldenTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _mix = readData("answers_mix.json");
        _golden = readData("answers_golden.json");
        std::string error;
        auto batch = parseBatchDocument(_mix, &error);
        ASSERT_TRUE(batch) << error;
        _queries = batch->queries;
    }

    static EngineOptions
    engineOptions()
    {
        EngineOptions opts;
        opts.threads = 2;
        opts.cacheCapacity = 256;
        return opts;
    }

    std::string _mix;
    std::string _golden;
    std::vector<Query> _queries;
};

TEST_F(AnswersGoldenTest, MixCoversTheWireFormat)
{
    std::set<QueryType> types;
    std::set<std::string> scenarios;
    bool restricted = false;
    for (const Query &q : _queries) {
        types.insert(q.type);
        scenarios.insert(q.scenario);
        restricted = restricted || q.device.has_value();
    }
    EXPECT_EQ(types.size(), allQueryTypes().size());
    for (const core::Scenario &s : core::allScenarios())
        EXPECT_TRUE(scenarios.count(s.name)) << s.name;
    EXPECT_TRUE(restricted);
    // Node spellings 22 and 22.0 are one query.
    EXPECT_EQ(_queries[0].canonicalKey(), _queries[1].canonicalKey());
    EXPECT_NE(_golden.find("\"feasible\":false"), std::string::npos);
}

TEST_F(AnswersGoldenTest, EvaluateQueryRendersTheGoldenBytes)
{
    std::vector<std::string> answers;
    for (const Query &q : _queries)
        answers.push_back(evaluateQuery(q).toJson());
    EXPECT_EQ(resultsDocument(answers), _golden);
}

TEST_F(AnswersGoldenTest, EngineMissesAndHitsServeTheGoldenBytes)
{
    QueryEngine engine(engineOptions());
    auto misses = engine.evaluateBatch(_queries);
    EXPECT_EQ(engine.cacheStats().hits, 0u);
    EXPECT_EQ(resultsDocument(misses), _golden);

    auto hits = engine.evaluateBatch(_queries);
    EXPECT_EQ(engine.cacheStats().misses, engine.cacheStats().hits);
    EXPECT_EQ(resultsDocument(hits), _golden);

    std::vector<std::string> singles;
    for (const Query &q : _queries)
        singles.push_back(textOf(*engine.evaluate(q)));
    EXPECT_EQ(resultsDocument(singles), _golden);
}

TEST_F(AnswersGoldenTest, RouterBatchServesTheGoldenBytes)
{
    QueryEngine engine(engineOptions());
    RequestRouter router(engine);
    RouteReply cold = router.route(_mix);
    EXPECT_EQ(cold.body + "\n", _golden);
    EXPECT_EQ(cold.served, _queries.size());
    RouteReply warm = router.route(_mix);
    EXPECT_GT(engine.cacheStats().hits, 0u);
    EXPECT_EQ(warm.body + "\n", _golden);
}

TEST_F(AnswersGoldenTest, FrontDoorBatchServesTheGoldenBytes)
{
    std::vector<std::unique_ptr<QueryEngine>> engines;
    std::vector<std::unique_ptr<net::ShardBackend>> backends;
    for (int i = 0; i < 3; ++i) {
        engines.push_back(std::make_unique<QueryEngine>(engineOptions()));
        backends.push_back(std::make_unique<net::LocalShardBackend>(
            "shard-" + std::to_string(i), *engines.back()));
    }
    net::FrontDoor front(std::move(backends));
    EXPECT_EQ(front.handle(_mix) + "\n", _golden);
    EXPECT_EQ(front.handle(_mix) + "\n", _golden); // warm shards
}

TEST_F(AnswersGoldenTest, RunBatchResultsOnlyIsTheGoldenFile)
{
    QueryEngine engine(engineOptions());
    std::ostringstream out;
    std::string error;
    ASSERT_TRUE(runBatch(_mix, engine, out, &error, true)) << error;
    EXPECT_EQ(out.str(), _golden);
}

} // namespace
} // namespace svc
} // namespace hcm
