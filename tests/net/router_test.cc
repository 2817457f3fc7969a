#include "svc/router.hh"

#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "net/front_door.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "svc/engine.hh"
#include "svc/fault.hh"
#include "svc/flight_recorder.hh"
#include "util/logging.hh"

namespace hcm {
namespace net {
namespace {

svc::EngineOptions
smallEngine()
{
    svc::EngineOptions opts;
    opts.threads = 2;
    return opts;
}

/** A backend whose shard is permanently gone. */
class DeadBackend : public ShardBackend
{
  public:
    explicit DeadBackend(std::string name) : _name(std::move(name)) {}

    const std::string &name() const override { return _name; }

    bool
    roundTrip(const std::string &, std::string *,
              std::string *error) override
    {
        if (error)
            *error = "connection refused (test)";
        return false;
    }

  private:
    std::string _name;
};

/** A reachable shard that answers every request with one fixed body. */
class FixedBackend : public ShardBackend
{
  public:
    FixedBackend(std::string name, std::string body)
        : _name(std::move(name)), _body(std::move(body))
    {
    }

    const std::string &name() const override { return _name; }

    bool
    roundTrip(const std::string &, std::string *response,
              std::string *) override
    {
        *response = _body;
        return true;
    }

  private:
    std::string _name;
    std::string _body;
};

/** A front door over two in-process shards, and a lone reference. */
struct TwoShardFixture
{
    svc::QueryEngine reference{smallEngine()};
    svc::RequestRouter direct{reference};
    svc::QueryEngine e0{smallEngine()};
    svc::QueryEngine e1{smallEngine()};
    FrontDoor front{backends(e0, e1)};

    static std::vector<std::unique_ptr<ShardBackend>>
    backends(svc::QueryEngine &a, svc::QueryEngine &b)
    {
        std::vector<std::unique_ptr<ShardBackend>> out;
        out.push_back(std::make_unique<LocalShardBackend>("shard-0", a));
        out.push_back(std::make_unique<LocalShardBackend>("shard-1", b));
        return out;
    }
};

TEST(RequestRouterTest, RoutesSingleQuery)
{
    svc::QueryEngine engine(smallEngine());
    svc::RequestRouter router(engine);
    svc::RouteReply reply =
        router.route(R"({"type":"optimize","workload":"mmm"})");
    EXPECT_EQ(reply.served, 1u);
    EXPECT_EQ(reply.body.find("{\"error\""), std::string::npos);
    EXPECT_NE(reply.body.find("\"workload\":\"MMM\""),
              std::string::npos);
}

TEST(RequestRouterTest, RoutesBatchDocument)
{
    svc::QueryEngine engine(smallEngine());
    svc::RequestRouter router(engine);
    svc::RouteReply reply = router.route(
        R"([{"type":"optimize","workload":"mmm"},)"
        R"({"type":"energy","workload":"bs"}])");
    EXPECT_EQ(reply.served, 2u);
    EXPECT_EQ(reply.body.rfind("{\"results\":[", 0), 0u);
}

TEST(RequestRouterTest, AnswersMetricsVerb)
{
    svc::QueryEngine engine(smallEngine());
    svc::RequestRouter router(engine);
    svc::RouteReply json = router.route(R"({"type":"metrics"})");
    EXPECT_EQ(json.body.rfind("{", 0), 0u);
    svc::RouteReply prom =
        router.route(R"({"type":"metrics","format":"prom"})");
    EXPECT_NE(prom.body.find("# TYPE"), std::string::npos);
    svc::RouteReply bad =
        router.route(R"({"type":"metrics","format":"xml"})");
    EXPECT_NE(bad.body.find("metrics format must be json or prom"),
              std::string::npos);
}

/** The process registry's JSON document as it reads now. */
std::string
processJson()
{
    std::string doc;
    JsonWriter json(doc);
    obs::globalRegistry().writeJson(json);
    return doc;
}

/** The process registry's Prometheus series as they read now. */
std::string
processProm()
{
    std::ostringstream out;
    obs::globalRegistry().writePrometheus(out);
    return out.str();
}

// On a quiesced engine every metrics payload is exactly the bytes its
// parts write: the engine's document (or series), then the process
// registry's. One worker and single queries keep every instrument
// update on this thread, so nothing moves between the two reads.
TEST(RequestRouterTest, MetricsPayloadsAreTheirPartsBytes)
{
    svc::EngineOptions opts;
    opts.threads = 1;
    svc::QueryEngine engine(opts);
    svc::RequestRouter router(engine);
    const std::string query = R"({"type":"optimize","workload":"mmm"})";
    router.route(query);
    router.route(query); // a hit
    std::string svc_doc;
    {
        JsonWriter json(svc_doc);
        engine.writeMetricsJson(json);
    }
    std::ostringstream svc_prom;
    engine.writeMetricsProm(svc_prom);

    EXPECT_EQ(router.route(R"({"type":"metrics"})").body, svc_doc);
    EXPECT_EQ(router.route(R"({"type":"metrics","scope":"svc"})").body,
              svc_doc);
    std::string all = "{\"svc\":" + svc_doc + ",\"process\":" +
                      processJson() + "}";
    EXPECT_EQ(router.route(R"({"type":"metrics","scope":"all"})").body,
              all);
    std::string prom = svc_prom.str() + processProm();
    EXPECT_EQ(router.route(R"({"type":"metrics","format":"prom"})").body,
              prom);
    EXPECT_EQ(router
                  .route(R"({"type":"metrics","format":"prom",)"
                         R"("scope":"all"})")
                  .body,
              prom);
}

TEST(RequestRouterTest, MalformedRequestAnswersError)
{
    svc::QueryEngine engine(smallEngine());
    svc::RequestRouter router(engine);
    svc::RouteReply reply = router.route("not json at all");
    EXPECT_EQ(reply.served, 0u);
    EXPECT_EQ(reply.body.rfind("{\"error\":", 0), 0u);
}

TEST(RequestRouterTest, UncalibratedWorkloadAnswersErrorThenServes)
{
    // Regression: fft:128 parsed, then aborted the process in the
    // model, so a serve session died on its next request.
    svc::QueryEngine engine(smallEngine());
    svc::RequestRouter router(engine);
    svc::RouteReply bad =
        router.route(R"({"type":"optimize","workload":"fft:128"})");
    EXPECT_EQ(bad.served, 0u);
    EXPECT_EQ(bad.body.rfind("{\"error\":", 0), 0u);
    EXPECT_NE(bad.body.find("no Table 5 calibration"), std::string::npos);
    svc::RouteReply good =
        router.route(R"({"type":"optimize","workload":"mmm"})");
    EXPECT_EQ(good.served, 1u);
    EXPECT_NE(good.body.find("\"speedup\""), std::string::npos);
}

TEST(FrontDoorTest, ParseHostPortTakesWholeDecimalPorts)
{
    std::string host, error;
    std::uint16_t port = 0;
    ASSERT_TRUE(parseHostPort("127.0.0.1:7070", &host, &port, &error));
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 7070);
    for (const char *bad : {"h:0", "h:65536", "h:-1", "h:+80", "h: 80",
                            "h:80x", "h:", "h", ":80"})
        EXPECT_FALSE(parseHostPort(bad, &host, &port, &error)) << bad;
}

TEST(FrontDoorTest, SingleQueryMatchesDirectEngine)
{
    // The front door over local shards must answer the same bytes a
    // lone engine does (modulo which shard's cache warmed).
    svc::QueryEngine reference(smallEngine());
    svc::RequestRouter direct(reference);

    svc::QueryEngine e0(smallEngine());
    svc::QueryEngine e1(smallEngine());
    std::vector<std::unique_ptr<ShardBackend>> backends;
    backends.push_back(
        std::make_unique<LocalShardBackend>("shard-0", e0));
    backends.push_back(
        std::make_unique<LocalShardBackend>("shard-1", e1));
    FrontDoor front(std::move(backends));

    const std::string request =
        R"({"type":"optimize","workload":"mmm","f":0.97})";
    EXPECT_EQ(front.handle(request), direct.route(request).body);
}

TEST(FrontDoorTest, BatchMergesInInputOrderByteIdentically)
{
    svc::QueryEngine reference(smallEngine());
    svc::RequestRouter direct(reference);

    svc::QueryEngine e0(smallEngine());
    svc::QueryEngine e1(smallEngine());
    svc::QueryEngine e2(smallEngine());
    std::vector<std::unique_ptr<ShardBackend>> backends;
    backends.push_back(
        std::make_unique<LocalShardBackend>("shard-0", e0));
    backends.push_back(
        std::make_unique<LocalShardBackend>("shard-1", e1));
    backends.push_back(
        std::make_unique<LocalShardBackend>("shard-2", e2));
    FrontDoor front(std::move(backends));

    const std::string batch =
        R"([{"type":"optimize","workload":"mmm","f":0.97},)"
        R"({"type":"energy","workload":"bs","f":0.5},)"
        R"({"type":"pareto","workload":"fft:1024","f":0.999},)"
        R"({"type":"optimize","workload":"mmm","f":0.123456789012345},)"
        R"({"type":"projection","workload":"bs","f":0.9}])";
    EXPECT_EQ(front.handle(batch), direct.route(batch).body);
}

/** @p body with every "requestId":"..." value replaced by "*". */
std::string
maskRequestIds(const std::string &body)
{
    const std::string member = "\"requestId\":\"";
    std::string out;
    std::size_t from = 0;
    for (std::size_t at = body.find(member); at != std::string::npos;
         at = body.find(member, from)) {
        out.append(body, from, at + member.size() - from);
        out += '*';
        from = body.find('"', at + member.size());
    }
    out.append(body, from, std::string::npos);
    return out;
}

TEST(FrontDoorTest, LocalAndTcpShardsAnswerAlike)
{
    // The same 2-shard tier twice: in-process shards answer the door's
    // parsed query, TCP shards parse the bytes the door forwards. Ring
    // names match, so each key lands on the same shard on both sides.
    svc::QueryEngine t0(smallEngine()), t1(smallEngine());
    svc::RequestRouter r0(t0), r1(t1);
    TcpServer s0(TcpServerOptions{}, [&](const std::string &request) {
        return r0.route(request).body;
    });
    TcpServer s1(TcpServerOptions{}, [&](const std::string &request) {
        return r1.route(request).body;
    });
    std::string error;
    ASSERT_TRUE(s0.start(&error)) << error;
    ASSERT_TRUE(s1.start(&error)) << error;
    std::vector<std::unique_ptr<ShardBackend>> tcp_backends;
    tcp_backends.push_back(
        std::make_unique<TcpShardBackend>("127.0.0.1", s0.port(), 2000));
    tcp_backends.push_back(
        std::make_unique<TcpShardBackend>("127.0.0.1", s1.port(), 2000));
    FrontDoor tcp(std::move(tcp_backends));

    svc::QueryEngine l0(smallEngine()), l1(smallEngine());
    std::vector<std::unique_ptr<ShardBackend>> local_backends;
    local_backends.push_back(std::make_unique<LocalShardBackend>(
        "127.0.0.1:" + std::to_string(s0.port()), l0));
    local_backends.push_back(std::make_unique<LocalShardBackend>(
        "127.0.0.1:" + std::to_string(s1.port()), l1));
    FrontDoor local(std::move(local_backends));

    const std::vector<std::string> answered = {
        R"({"type":"optimize","workload":"mmm","f":0.97})",
        R"({"type":"pareto","workload":"bs","f":0.5,"node":16,)"
        R"("requestId":"client-1"})",
        R"({"requestId":"client-2","type":"projection","f":0.123456789012345})",
        R"([{"type":"energy","workload":"fft:1024","f":0.9},)"
        R"({"type":"optimize","f":0.99,"requestId":"client-3"},)"
        R"({"type":"optimize","workload":"mmm","f":0.97}])",
    };
    for (const std::string &request : answered)
        EXPECT_EQ(local.handle(request), tcp.handle(request)) << request;

    // Every evaluation fails: the shard's error echoes the request's
    // id, the client's verbatim and a door-minted one too.
    svc::FaultInjector::instance().reset();
    LogLevel previous = logThreshold();
    setLogThreshold(LogLevel::Fatal);
    ASSERT_TRUE(
        svc::FaultInjector::instance().configure("eval:throw=boom"));
    const std::string with_id =
        R"({"type":"optimize","workload":"bs","f":0.31,)"
        R"("requestId":"client-4"})";
    std::string local_fault = local.handle(with_id);
    EXPECT_NE(local_fault.find(R"("requestId":"client-4")"),
              std::string::npos)
        << local_fault;
    EXPECT_EQ(local_fault, tcp.handle(with_id));

    const std::vector<std::string> minted = {
        R"({"type":"energy","workload":"mmm","f":0.32})",
        R"([{"type":"optimize","f":0.33},)"
        R"({"type":"pareto","f":0.34,"requestId":"client-5"}])",
    };
    for (const std::string &request : minted) {
        std::string a = local.handle(request);
        std::string b = tcp.handle(request);
        EXPECT_NE(a.find("\"type\":\"evaluation_failed\""),
                  std::string::npos)
            << a;
        EXPECT_EQ(a.find(R"("requestId":"*")"), std::string::npos);
        EXPECT_NE(maskRequestIds(a), a) << "no door-minted id in " << a;
        EXPECT_NE(maskRequestIds(b), b) << "no door-minted id in " << b;
        EXPECT_EQ(maskRequestIds(a), maskRequestIds(b)) << request;
    }
    svc::FaultInjector::instance().reset();
    setLogThreshold(previous);
}

TEST(FrontDoorTest, ShardPlacementIsDisjointAndTotal)
{
    svc::QueryEngine e0(smallEngine());
    svc::QueryEngine e1(smallEngine());
    std::vector<std::unique_ptr<ShardBackend>> backends;
    backends.push_back(
        std::make_unique<LocalShardBackend>("shard-0", e0));
    backends.push_back(
        std::make_unique<LocalShardBackend>("shard-1", e1));
    FrontDoor front(std::move(backends));

    std::set<std::string> seen;
    for (int i = 0; i < 50; ++i) {
        const std::string *owner = front.shardForKey(
            "optimize|MMM|0." + std::to_string(i) + "|baseline|22");
        ASSERT_NE(owner, nullptr);
        seen.insert(*owner);
    }
    // Every key has exactly one owner; with 50 keys both shards
    // should appear (97 virtual points each).
    EXPECT_EQ(seen.size(), 2u);
}

TEST(FrontDoorTest, DeadShardYieldsStructuredUnavailable)
{
    std::vector<std::unique_ptr<ShardBackend>> backends;
    backends.push_back(std::make_unique<DeadBackend>("shard-0"));
    FrontDoor front(std::move(backends));

    std::string body =
        front.handle(R"({"type":"optimize","workload":"mmm"})");
    EXPECT_EQ(body.rfind("{\"error\":", 0), 0u);
    EXPECT_NE(body.find("\"type\":\"shard_unavailable\""),
              std::string::npos);
    EXPECT_NE(body.find("\"retryAfterMs\":"), std::string::npos);
    EXPECT_NE(body.find("connection refused (test)"),
              std::string::npos);
}

TEST(FrontDoorTest, BatchDegradesPerQueryNotWholesale)
{
    // One dead shard: its queries answer shard_unavailable, the
    // healthy shard's queries still answer normally, order holds.
    svc::QueryEngine healthy(smallEngine());
    std::vector<std::unique_ptr<ShardBackend>> backends;
    backends.push_back(
        std::make_unique<LocalShardBackend>("shard-0", healthy));
    backends.push_back(std::make_unique<DeadBackend>("shard-1"));
    FrontDoor front(std::move(backends));

    std::string batch = "[";
    for (int i = 0; i < 20; ++i) {
        if (i > 0)
            batch += ",";
        batch += R"({"type":"optimize","workload":"mmm","f":0.9)" +
                 std::to_string(i) + "}";
    }
    batch += "]";
    std::string body = front.handle(batch);
    EXPECT_EQ(body.rfind("{\"results\":[", 0), 0u);
    EXPECT_NE(body.find("\"type\":\"shard_unavailable\""),
              std::string::npos)
        << "expected some queries on the dead shard";
    EXPECT_NE(body.find("\"speedup\""), std::string::npos)
        << "expected some queries to still succeed";
}

TEST(FrontDoorTest, MalformedBatchMemberAnswersErrorBody)
{
    svc::QueryEngine e0(smallEngine());
    std::vector<std::unique_ptr<ShardBackend>> backends;
    backends.push_back(
        std::make_unique<LocalShardBackend>("shard-0", e0));
    FrontDoor front(std::move(backends));
    std::string body =
        front.handle(R"([{"type":"optimize"},{"type":17}])");
    EXPECT_EQ(body.rfind("{\"error\":", 0), 0u);
}

TEST(FrontDoorTest, HostileBatchDocumentsAnswerLikeTheRouter)
{
    // Duplicate, escaped, nested and space-padded "requests" keys: the
    // front door must pick the member the parser picks (decoded key,
    // last occurrence) and answer the router's bytes, never panic.
    TwoShardFixture tier;
    const std::string q1 = R"({"type":"optimize","workload":"mmm","f":0.97})";
    const std::string q2 = R"({"type":"energy","workload":"bs","f":0.5})";
    const std::vector<std::string> docs = {
        R"({"requests":[],"requests":[)" + q1 + "]}",
        R"({"requests":[)" + q1 + R"(],"requests":[)" + q2 + "]}",
        R"({"\u0072equests":[)" + q1 + "]}",
        R"({"x":{"requests":[]},"requests":[)" + q1 + "]}",
        "{ \"requests\" : [ ] ,\n\t\"requests\"\r:\f[ " + q1 + " ] }",
        "{\"requests\":[" + q1 + "] ,  \"requests\" : [" + q2 + ",\n" +
            q1 + "]}\n",
        " {\"\\u0072equests\" :[ ]}",
    };
    for (const std::string &doc : docs) {
        std::string expected = tier.direct.route(doc).body;
        EXPECT_EQ(expected.rfind("{\"results\":[", 0), 0u) << doc;
        EXPECT_EQ(tier.front.handle(doc), expected) << doc;
    }
}

TEST(FrontDoorTest, VerbFormatErrorsMatchTheRouter)
{
    TwoShardFixture tier;
    for (const char *verb :
         {R"({"type":"requests","format":"prom"})",
          R"({"type":"requests","format":7})",
          R"({"type":"requests","format":"json"})",
          R"({"type":"requests"})",
          R"({"type":"metrics","format":"xml"})",
          R"({"type":"metrics","format":null})",
          R"({"type":"warp-drive"})"}) {
        EXPECT_EQ(tier.front.handle(verb), tier.direct.route(verb).body)
            << verb;
    }
    EXPECT_EQ(tier.front.handle(R"({"type":"requests","format":"prom"})"),
              R"({"error":"requests format must be json"})");
}

TEST(FrontDoorTest, MetricsScopeErrorsMatchTheRouter)
{
    TwoShardFixture tier;
    for (const char *verb :
         {R"({"type":"metrics","scope":"bogus"})",
          R"({"type":"metrics","scope":7})",
          R"({"type":"metrics","scope":null})",
          R"({"type":"metrics","format":"prom","scope":"bogus"})",
          R"({"type":"metrics","format":"xml","scope":"bogus"})"}) {
        EXPECT_EQ(tier.front.handle(verb), tier.direct.route(verb).body)
            << verb;
    }
    EXPECT_EQ(tier.front.handle(R"({"type":"metrics","scope":"bogus"})"),
              R"({"error":"metrics scope must be svc or all"})");
    // Both good scopes still answer the door's process registry.
    for (const char *verb : {R"({"type":"metrics","scope":"svc"})",
                             R"({"type":"metrics","scope":"all"})"})
        EXPECT_EQ(tier.front.handle(verb).rfind("{\"error\"", 0),
                  std::string::npos)
            << verb;
}

// The door has no engine: both JSON scopes answer the bare process
// registry document, and Prometheus its series.
TEST(FrontDoorTest, MetricsScopesAnswerTheProcessRegistryBytes)
{
    TwoShardFixture tier;
    for (const char *verb : {R"({"type":"metrics"})",
                             R"({"type":"metrics","scope":"svc"})",
                             R"({"type":"metrics","scope":"all"})"}) {
        std::string expected = processJson();
        EXPECT_EQ(tier.front.handle(verb), expected) << verb;
    }
    std::string expected = processProm();
    EXPECT_EQ(tier.front.handle(R"({"type":"metrics","format":"prom"})"),
              expected);
}

TEST(FrontDoorTest, TypelessShardErrorIsRecordedAsError)
{
    // A shard's transport-level rejection ({"error": why}, no "type")
    // is a failure, not an "ok" hop.
    svc::FlightRecorder &recorder = svc::FlightRecorder::instance();
    recorder.configure(8);
    {
        std::vector<std::unique_ptr<ShardBackend>> backends;
        backends.push_back(
            std::make_unique<FixedBackend>("shard-0", R"({"error":"x"})"));
        FrontDoor front(std::move(backends));
        EXPECT_EQ(front.handle(R"({"type":"optimize","workload":"mmm"})"),
                  R"({"error":"x"})");
    }
    std::vector<svc::RequestRecord> records = recorder.snapshot();
    recorder.configure(0);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].shard, "shard-0");
    EXPECT_EQ(records[0].outcome, "error");
}

} // namespace
} // namespace net
} // namespace hcm
