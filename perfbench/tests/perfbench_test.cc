// Tests of the benchmark harness itself: the open-loop schedule, the
// exact percentiles, the seeded inputs, the oracle, and agreement of the
// harness's metric and workload names with BENCHMARK.json.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "common.hh"
#include "serve.hh"
#include "sweep_run.hh"
#include "util/json_parse.hh"

namespace perfbench {
namespace {

TEST(Schedule, DueTimesFollowTheRate)
{
    Schedule s(10000.0, 1.5);
    EXPECT_EQ(s.count, 15000u);
    EXPECT_EQ(s.dueNs(0), 0);
    EXPECT_EQ(s.dueNs(1), 100000);
    EXPECT_EQ(s.dueNs(14999), 1499900000);
    Schedule cold(6000.0, 0.5);
    EXPECT_EQ(cold.count, 3000u);
    EXPECT_EQ(cold.dueNs(3), 500000);
    EXPECT_EQ(cold.dueNs(1), 166667); // rounded to the nearest ns
}

TEST(Percentiles, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(percentileSorted(v, 50), 50);
    EXPECT_EQ(percentileSorted(v, 99), 99);
    EXPECT_EQ(percentileSorted(v, 99.5), 100);
    EXPECT_EQ(percentileSorted(v, 0), 1);
    EXPECT_EQ(percentileSorted({7.0}, 99), 7.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({}), std::nullopt);
}

TEST(Percentiles, HighestWithTenSamplesBeyond)
{
    auto ramp = [](std::size_t n) {
        std::vector<double> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<double>(i + 1);
        return v;
    };
    auto t = highestSupportedPercentile(ramp(1000));
    ASSERT_TRUE(t);
    EXPECT_EQ(t->pct, 99.0);
    EXPECT_EQ(t->value, 990);
    EXPECT_EQ(t->beyond, 10u);
    EXPECT_EQ(t->count, 1000u);

    t = highestSupportedPercentile(ramp(999)); // p99 leaves only 9
    ASSERT_TRUE(t);
    EXPECT_EQ(t->pct, 95.0);

    t = highestSupportedPercentile(ramp(10000));
    ASSERT_TRUE(t);
    EXPECT_EQ(t->pct, 99.9);
    EXPECT_EQ(t->beyond, 10u);

    t = highestSupportedPercentile(ramp(20));
    ASSERT_TRUE(t);
    EXPECT_EQ(t->pct, 50.0);
    EXPECT_FALSE(highestSupportedPercentile(ramp(19)));
    EXPECT_FALSE(highestSupportedPercentile({}));
}

std::optional<hcm::JsonValue>
benchmarkJson()
{
    std::ifstream in(PERFBENCH_JSON);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    return hcm::JsonValue::parse(text.str(), &error);
}

void
expectSameMetrics(const hcm::JsonValue &list,
                  const std::vector<std::pair<const char *, const char *>>
                      &harness)
{
    ASSERT_TRUE(list.isArray());
    ASSERT_EQ(list.items().size(), harness.size());
    for (std::size_t i = 0; i < harness.size(); ++i) {
        const hcm::JsonValue &m = list.items()[i];
        EXPECT_EQ(m.find("name")->asString(), harness[i].first);
        EXPECT_EQ(m.find("unit")->asString(), harness[i].second);
    }
}

TEST(Names, MatchBenchmarkJson)
{
    auto doc = benchmarkJson();
    ASSERT_TRUE(doc && doc->isObject());
    expectSameMetrics(*doc->find("end_to_end"), kEndToEndMetrics);
    expectSameMetrics(*doc->find("per_layer"), kPerLayerMetrics);
    const auto &workloads = doc->find("workloads")->items();
    ASSERT_EQ(workloads.size(), kWorkloadNames.size());
    for (std::size_t i = 0; i < workloads.size(); ++i)
        EXPECT_EQ(workloads[i].find("name")->asString(), kWorkloadNames[i]);
    // The open-loop rates are recorded in the workload descriptions.
    auto rate = [](double r) {
        return std::to_string(static_cast<int>(r)) + " req/s";
    };
    EXPECT_NE(workloads[0].find("why")->asString().find(rate(kHotRate)),
              std::string::npos);
    EXPECT_NE(workloads[1].find("why")->asString().find(rate(kColdRate)),
              std::string::npos);
}

TEST(Inputs, HotSetCoversEveryValueAndTheSeedDrawsTheStream)
{
    std::vector<QuerySpec> set = hotQuerySet(kHotKeys);
    ASSERT_EQ(set.size(), kHotKeys);
    std::set<std::string> payloads;
    std::set<std::size_t> types, workloads, scenarios, nodes;
    std::set<double> fractions;
    for (const QuerySpec &q : set) {
        payloads.insert(payloadFor(q));
        types.insert(q.type);
        workloads.insert(q.workload);
        scenarios.insert(q.scenario);
        if (std::string(kQueryTypes[q.type]) != "projection")
            nodes.insert(q.node);
        fractions.insert(q.f);
    }
    EXPECT_EQ(payloads.size(), kHotKeys);
    EXPECT_EQ(types.size(), kQueryTypes.size());
    EXPECT_EQ(workloads.size(), kWorkloadSpecs.size());
    EXPECT_EQ(scenarios.size(), kScenarioNames.size());
    EXPECT_EQ(nodes.size(), kNodes.size());
    EXPECT_EQ(fractions.size(), kHotFractions.size());

    std::unique_ptr<Traffic> seven = makeHotTraffic(7);
    std::unique_ptr<Traffic> again = makeHotTraffic(7);
    std::unique_ptr<Traffic> eight = makeHotTraffic(8);
    bool differs = false;
    for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(seven->payload(kStreamOpen, i),
                  again->payload(kStreamOpen, i));
        differs |= seven->payload(kStreamOpen, i) !=
                   eight->payload(kStreamOpen, i);
    }
    EXPECT_TRUE(differs);
}

TEST(Inputs, ColdRequestsAreDistinctAndInRange)
{
    std::set<std::string> seen;
    for (std::uint64_t i = 0; i < 2000; ++i) {
        QuerySpec q = coldQuery(3, kStreamOpen, i);
        EXPECT_GE(q.f, 0.5);
        EXPECT_LE(q.f, 0.9999);
        seen.insert(payloadFor(q));
    }
    EXPECT_EQ(seen.size(), 2000u);
    EXPECT_EQ(payloadFor(coldQuery(3, kStreamOpen, 11)),
              payloadFor(coldQuery(3, kStreamOpen, 11)));
    EXPECT_NE(payloadFor(coldQuery(3, kStreamOpen, 11)),
              payloadFor(coldQuery(3, kStreamClosed, 11)));
}

/** Every single-byte flip of the right answer is judged a mismatch. */
void
expectFlipsCaught(const Traffic &traffic, std::uint64_t index)
{
    std::string good = oracleResponse(traffic.payload(kStreamOpen, index));
    Record rec;
    rec.index = index;
    traffic.inspect(kStreamOpen, good, &rec);
    traffic.resolve(kStreamOpen, &rec);
    EXPECT_EQ(rec.verdict, Verdict::Ok);
    for (std::size_t pos = 0; pos < good.size(); pos += 7) {
        std::string bad = good;
        bad[pos] ^= 0x01;
        Record flipped;
        flipped.index = index;
        traffic.inspect(kStreamOpen, bad, &flipped);
        traffic.resolve(kStreamOpen, &flipped);
        EXPECT_EQ(flipped.verdict, Verdict::Mismatch) << "byte " << pos;
    }
}

TEST(Oracle, CatchesASingleFlippedByte)
{
    expectFlipsCaught(*makeHotTraffic(1), 3);
    expectFlipsCaught(*makeColdTraffic(1), 3);
}

TEST(Oracle, DigestSinkSeesEveryByte)
{
    std::string text(200000, 'x');
    for (std::size_t i = 0; i < text.size(); ++i)
        text[i] = static_cast<char>('a' + i % 26);
    DigestBuf sink;
    {
        std::ostream out(&sink);
        out << text.substr(0, 5) << text.substr(5);
    }
    EXPECT_EQ(sink.digest(), digestOf(text));
    text[123456] ^= 0x20;
    EXPECT_NE(sink.digest(), digestOf(text));
}

TEST(Oracle, DenseSweepMatchesTheRecordedDigest)
{
    DigestBuf sink;
    SweepTiming t = sweepOnce(denseSpecStrings(), workerThreads(), sink);
    EXPECT_EQ(t.lines, 241200u);
    EXPECT_EQ(t.digest, kDenseCsvDigest);
}

} // namespace
} // namespace perfbench
