/** @file Tests for the typed query layer: canonical keys, evaluation
 *  against direct core calls, and JSON serialization. */

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pareto.hh"
#include "core/scenario.hh"
#include "devices/measured.hh"
#include "itrs/scaling.hh"
#include "svc/query.hh"
#include "sweep/sweep.hh"
#include "util/format.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace svc {
namespace {

TEST(QueryTypeTest, NamesRoundTrip)
{
    for (QueryType t : allQueryTypes())
        EXPECT_EQ(queryTypeByName(queryTypeName(t)), t);
    EXPECT_FALSE(queryTypeByName("nonsense"));
}

TEST(QueryKeyTest, IdenticalQueriesShareAKey)
{
    Query a;
    Query b;
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
}

TEST(QueryKeyTest, RequestIdNeverEntersTheKey)
{
    // Identity of the computation, not of the request: two clients
    // asking the same question must rendezvous on one cache entry.
    Query a;
    Query b;
    b.requestId = "rid-123";
    b.requestIdEcho = true;
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
}

TEST(QueryResultTest, ErrorsEchoTheRequestIdOnlyWhenClientSupplied)
{
    Query q;
    q.requestId = "rid-err";
    QueryResult result;
    result.query = q;
    result.error = "boom";
    result.errorKind = QueryErrorKind::EvaluationFailed;
    // Minted (not client-supplied): no echo, responses stay
    // byte-identical to an untagged run.
    EXPECT_EQ(result.toJson().find("requestId"), std::string::npos);
    result.query.requestIdEcho = true;
    EXPECT_NE(result.toJson().find("\"requestId\":\"rid-err\""),
              std::string::npos);
}

TEST(QueryResultTest, SuccessesNeverEchoTheRequestId)
{
    Query q;
    q.requestId = "rid-ok";
    q.requestIdEcho = true;
    QueryResult result = evaluateQuery(q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.toJson().find("requestId"), std::string::npos);
}

TEST(QueryKeyTest, EveryInputPerturbationChangesTheKey)
{
    Query base;
    std::set<std::string> keys;
    keys.insert(base.canonicalKey());

    Query q = base;
    q.type = QueryType::Energy;
    keys.insert(q.canonicalKey());

    q = base;
    q.workload = wl::Workload::mmm();
    keys.insert(q.canonicalKey());

    q = base;
    q.f = 0.999;
    keys.insert(q.canonicalKey());

    q = base;
    q.scenario = "power-10w";
    keys.insert(q.canonicalKey());

    q = base;
    q.node = 11.0;
    keys.insert(q.canonicalKey());

    q = base;
    q.device = dev::DeviceId::Asic;
    keys.insert(q.canonicalKey());

    EXPECT_EQ(keys.size(), 7u);
}

TEST(QueryKeyTest, ProjectionIgnoresNode)
{
    Query a;
    a.type = QueryType::Projection;
    Query b = a;
    b.node = 11.0;
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
}

/**
 * The text key the record replaced, kept as the oracle: the record
 * must tell two queries apart exactly when this text does.
 */
std::string
textKey(const Query &q)
{
    std::string key = queryTypeName(q.type) + "|" + q.workload.name() +
                      "|f=";
    appendDouble17(key, q.f);
    key += "|s=" + q.scenario;
    if (q.type != QueryType::Projection) {
        key += "|n=";
        appendDouble17(key, q.node);
    }
    key += "|d=";
    key += q.device ? dev::deviceName(*q.device) : "*";
    return key;
}

TEST(QueryKeyTest, RecordKeysMatchTheTextKeyExactly)
{
    // f values: the ends of the range, negative zero, seeded 17-digit
    // values, and each one's neighbouring doubles; NaNs of both signs
    // and two payloads print alike.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> fs = {0.0,  -0.0, 1.0,          0.99,
                              0.5,  nan,  std::nan("7"), -nan};
    std::mt19937_64 rng(20101);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < 3; ++i)
        fs.push_back(unit(rng));
    for (std::size_t i = 0, n = fs.size(); i < n; ++i) {
        fs.push_back(std::nextafter(fs[i], 2.0));
        fs.push_back(std::nextafter(fs[i], -1.0));
    }

    std::vector<std::optional<dev::DeviceId>> devices = {std::nullopt};
    for (dev::DeviceId d : dev::allDevices())
        devices.push_back(d);
    std::vector<double> nodes;
    for (const itrs::NodeParams &n : itrs::nodeTable())
        nodes.push_back(n.nodeNm);
    // Outside the registries: followed in full, still exact.
    nodes.push_back(7.0);
    std::vector<std::string> scenarios;
    for (const core::Scenario &s : core::allScenarios())
        scenarios.push_back(s.name);
    scenarios.push_back("Baseline");

    std::map<std::string, std::string> text_of;   // record -> text
    std::map<std::string, std::string> record_of; // text -> record
    std::size_t queries = 0;
    for (QueryType type : allQueryTypes())
        for (const wl::Workload &workload : dev::table5Workloads())
            for (double node : nodes)
                for (const std::string &scenario : scenarios)
                    for (const auto &device : devices)
                        for (double f : fs) {
                            Query q;
                            q.type = type;
                            q.workload = workload;
                            q.f = f;
                            q.scenario = scenario;
                            q.node = node;
                            q.device = device;
                            std::string record = q.canonicalKey();
                            std::string text = textKey(q);
                            bool registered = node != 7.0 &&
                                              scenario != "Baseline";
                            if (registered) {
                                ASSERT_LE(record.size(), 15u) << text;
                            }
                            auto [r, r_new] =
                                text_of.emplace(record, text);
                            ASSERT_EQ(r->second, text) << "record shared";
                            auto [t, t_new] =
                                record_of.emplace(text, record);
                            ASSERT_EQ(t->second, record) << text;
                            ASSERT_EQ(r_new, t_new) << text;
                            ++queries;
                        }
    // Projection leaves the node out, so its keys repeat across nodes.
    EXPECT_LT(text_of.size(), queries);
    EXPECT_EQ(text_of.size(), record_of.size());
}

/** True when @p a and @p b are the same double, bit for bit. */
bool
bitEq(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Bit-for-bit equality of two designs, field by field. */
void
expectSameDesign(const core::DesignPoint &got,
                 const core::DesignPoint &want, const std::string &where)
{
    EXPECT_EQ(got.feasible, want.feasible) << where;
    EXPECT_EQ(got.limiter, want.limiter) << where;
    EXPECT_TRUE(bitEq(got.f, want.f)) << where;
    EXPECT_TRUE(bitEq(got.r, want.r)) << where;
    EXPECT_TRUE(bitEq(got.n, want.n)) << where;
    EXPECT_TRUE(bitEq(got.speedup, want.speedup)) << where;
    EXPECT_TRUE(bitEq(got.energy.serial, want.energy.serial)) << where;
    EXPECT_TRUE(bitEq(got.energy.parallel, want.energy.parallel))
        << where;
}

TEST(QueryEvalTest, OptimizeMatchesDirectCoreCall)
{
    // Every path a scenario reaches the optimizer by agrees bit for
    // bit, for every scenario in the registry: the served row,
    // core::bestDesigns, the projectAll point and a runSweep cell.
    const itrs::NodeParams &node = itrs::nodeParams(22.0);
    const std::vector<itrs::NodeParams> &nodes = itrs::nodeTable();
    std::size_t at = 0;
    while (nodes[at].nodeNm != node.nodeNm)
        ++at;
    for (const core::Scenario &scenario : core::allScenarios()) {
        Query q;
        q.type = QueryType::Optimize;
        q.workload = wl::Workload::fft(1024);
        q.f = 0.99;
        q.node = 22.0;
        q.scenario = scenario.name;
        QueryResult result = evaluateQuery(q);

        auto designs =
            core::bestDesigns(q.workload, q.f, node, scenario);
        auto series = core::projectAll(q.workload, q.f, scenario);
        sweep::SweepSpec spec;
        spec.workloads = {q.workload};
        spec.fractions = {q.f};
        spec.scenarios = {scenario};
        sweep::SweepOptions sopts;
        sopts.jobs = 1;
        sweep::SweepResult grid = sweep::runSweep(spec, sopts);

        ASSERT_EQ(result.rows.size(), designs.size()) << scenario.name;
        ASSERT_EQ(series.size(), designs.size()) << scenario.name;
        ASSERT_EQ(grid.rows.size(), designs.size()) << scenario.name;
        for (std::size_t i = 0; i < designs.size(); ++i) {
            const core::ParetoPoint &d = designs[i];
            std::string where = scenario.name + " " + d.orgName;
            expectSameDesign(series[i].points[at].design, d.design,
                             where + " projectAll");
            expectSameDesign(grid.rows[i].cells[at].design, d.design,
                             where + " runSweep");
            EXPECT_EQ(series[i].org.name, d.orgName);
            EXPECT_EQ(grid.rows[i].organization, d.orgName);

            const ResultRow &row = result.rows[i];
            EXPECT_EQ(row.org, d.paperIndex);
            EXPECT_EQ(row.node, at) << where;
            EXPECT_EQ(row.feasible, d.design.feasible) << where;
            if (!d.design.feasible)
                continue;
            EXPECT_TRUE(bitEq(row.r, d.design.r)) << where;
            EXPECT_TRUE(bitEq(row.n, d.design.n)) << where;
            EXPECT_TRUE(bitEq(row.speedup, d.design.speedup)) << where;
            EXPECT_EQ(row.limiter, d.design.limiter) << where;
            EXPECT_TRUE(bitEq(row.energyNormalized, d.energyNormalized))
                << where;
            EXPECT_TRUE(bitEq(series[i].points[at].energyNormalized(),
                              d.energyNormalized))
                << where;
            EXPECT_TRUE(bitEq(grid.rows[i].cells[at].energyNormalized,
                              d.energyNormalized))
                << where;
        }
    }
}

TEST(QueryEvalTest, ProjectionCoversEveryOrgAndNode)
{
    Query q;
    q.type = QueryType::Projection;
    q.workload = wl::Workload::mmm();
    q.f = 0.99;
    QueryResult result = evaluateQuery(q);

    auto series = core::projectAll(q.workload, q.f);
    std::size_t expected = 0;
    for (const auto &s : series)
        expected += s.points.size();
    EXPECT_EQ(result.rows.size(), expected);
}

TEST(QueryEvalTest, DeviceFilterKeepsCmpsAndOneHet)
{
    Query q;
    q.type = QueryType::Optimize;
    q.workload = wl::Workload::fft(1024);
    q.device = dev::DeviceId::Asic;
    QueryResult result = evaluateQuery(q);
    // SymCMP + AsymCMP + the one selected HET.
    ASSERT_EQ(result.rows.size(), 3u);
    EXPECT_EQ(result.rows.back().org,
              core::heterogeneous(dev::DeviceId::Asic, q.workload)
                  ->paperIndex);
}

TEST(QueryEvalTest, EnergyObjectiveNeverBeatenOnEnergy)
{
    Query speed;
    speed.type = QueryType::Optimize;
    speed.workload = wl::Workload::mmm();
    speed.f = 0.99;
    speed.node = 22.0;
    Query energy = speed;
    energy.type = QueryType::Energy;

    QueryResult fast = evaluateQuery(speed);
    QueryResult frugal = evaluateQuery(energy);
    ASSERT_EQ(fast.rows.size(), frugal.rows.size());
    for (std::size_t i = 0; i < fast.rows.size(); ++i) {
        if (!fast.rows[i].feasible || !frugal.rows[i].feasible)
            continue;
        EXPECT_LE(frugal.rows[i].energyNormalized,
                  fast.rows[i].energyNormalized * (1.0 + 1e-9))
            << int{fast.rows[i].org};
    }
}

TEST(QueryEvalTest, ParetoRowsAreMutuallyNonDominated)
{
    Query q;
    q.type = QueryType::Pareto;
    q.workload = wl::Workload::mmm();
    q.f = 0.99;
    q.node = 22.0;
    QueryResult result = evaluateQuery(q);
    ASSERT_GE(result.rows.size(), 2u);
    for (const ResultRow &a : result.rows)
        for (const ResultRow &b : result.rows) {
            if (&a == &b)
                continue;
            bool dominates = a.speedup >= b.speedup &&
                             a.energyNormalized <= b.energyNormalized &&
                             (a.speedup > b.speedup ||
                              a.energyNormalized < b.energyNormalized);
            EXPECT_FALSE(dominates);
        }
}

TEST(QueryResultTest, JsonIsParseableAndEchoesTheQuery)
{
    Query q;
    q.type = QueryType::Optimize;
    q.device = dev::DeviceId::Gtx285;
    QueryResult result = evaluateQuery(q);
    auto doc = JsonValue::parse(result.toJson());
    ASSERT_TRUE(doc);
    const JsonValue *query = doc->find("query");
    ASSERT_NE(query, nullptr);
    EXPECT_EQ(query->find("type")->asString(), "optimize");
    EXPECT_EQ(query->find("device")->asString(), "GTX285");
    const JsonValue *rows = doc->find("rows");
    ASSERT_NE(rows, nullptr);
    EXPECT_EQ(rows->size(), result.rows.size());
}

} // namespace
} // namespace svc
} // namespace hcm
