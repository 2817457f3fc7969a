#include "layers.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "core/budget.hh"
#include "core/multi_amdahl.hh"
#include "core/optimizer_batch.hh"
#include "core/organization.hh"
#include "core/scenario.hh"
#include "itrs/scaling.hh"
#include "net/framing.hh"
#include "net/front_door.hh"
#include "net/server.hh"
#include "serve.hh"
#include "svc/cache.hh"
#include "svc/engine.hh"
#include "svc/query.hh"
#include "svc/request.hh"
#include "svc/router.hh"
#include "sweep_run.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

namespace {

/** Anything a timed call returns goes here, so no call is elided. */
std::atomic<std::size_t> g_sink{0};

/** Mean ns of @p reps back-to-back calls of @p fn. */
template <typename F>
double
nsOf(F &&fn, int reps = 1)
{
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < reps; ++i)
        fn();
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
               .count() /
           reps;
}

double
medianOr0(const std::vector<double> &v)
{
    return median(v).value_or(0.0);
}

/** A shard backend that times the owning shard's route for the door. */
class TimedBackend : public hcm::net::ShardBackend
{
  public:
    TimedBackend(std::string name, hcm::svc::QueryEngine &engine)
        : _inner(std::move(name), engine)
    {
    }

    const std::string &name() const override { return _inner.name(); }

    bool
    roundTrip(const std::string &request, std::string *response,
              std::string *error) override
    {
        bool ok = true;
        _lastNs = nsOf([&] { ok = _inner.roundTrip(request, response, error); });
        return ok;
    }

    double lastNs() const { return _lastNs; }
    void clear() { _lastNs = 0.0; }

  private:
    hcm::net::LocalShardBackend _inner;
    double _lastNs = 0.0;
};

hcm::svc::EngineOptions
singleThreadEngine()
{
    hcm::svc::EngineOptions opts;
    opts.threads = 1;
    return opts;
}

} // namespace

double
Ledger::hitPathUs() const
{
    return rttEmptyUs + encodeUs + decodeUs + 2 * parseUs + 2 * keyUs +
           lookupUs + renderUs;
}

double
Ledger::missPathUs() const
{
    return rttEmptyUs + encodeUs + decodeUs + 2 * parseUs + 2 * keyUs +
           handoffUs + evalUs + renderUs;
}

Ledger
replayServeLayers(const LayerInputs &in, Report &report)
{
    namespace svc = hcm::svc;
    namespace core = hcm::core;
    Ledger ledger;
    std::size_t n = in.payloads.size();

    // Request parse, canonical key, evaluation, render: one pass each.
    std::vector<svc::Query> queries(n);
    std::vector<std::string> keys(n);
    std::vector<std::string> bodies(n);
    std::vector<double> parse_ns, key_ns, eval_us(n), all_render_us;
    std::map<std::string, std::vector<double>> eval_by_type, render_by_type;
    for (std::size_t i = 0; i < n; ++i) {
        svc::RequestParse parsed;
        parse_ns.push_back(nsOf(
            [&] { parsed = svc::parseQueryRequestText(in.payloads[i]); }, 4));
        if (!parsed.ok)
            throw std::runtime_error("replay payload rejected: " +
                                     parsed.error);
        queries[i] = parsed.query;
        key_ns.push_back(
            nsOf([&] { keys[i] = queries[i].canonicalKey(); }, 4));
        std::string type = svc::queryTypeName(queries[i].type);
        svc::QueryResult result;
        eval_us[i] =
            nsOf([&] { result = svc::evaluateQuery(queries[i]); }) / 1e3;
        double render =
            nsOf([&] { bodies[i] = result.toJson(); }) / 1e3;
        eval_by_type[type].push_back(eval_us[i]);
        render_by_type[type].push_back(render);
        all_render_us.push_back(render);
    }
    for (const char *type : kQueryTypes) {
        report.set(std::string("svc.query.eval_us.") + type,
                   median(eval_by_type[type]));
        report.set(std::string("svc.query.render_us.") + type,
                   median(render_by_type[type]));
    }
    report.set("svc.request.parse_ns", median(parse_ns));
    report.set("svc.query.key_ns", median(key_ns));
    ledger.parseUs = medianOr0(parse_ns) / 1e3;
    ledger.keyUs = medianOr0(key_ns) / 1e3;
    ledger.evalUs = medianOr0(eval_us);
    ledger.renderUs = medianOr0(all_render_us);

    // BatchEvaluator, set up exactly as an optimize/energy query does.
    std::vector<double> assign_ns, best_ns;
    core::BatchEvaluator evaluator;
    for (const svc::Query &q : queries) {
        if (q.type != svc::QueryType::Optimize &&
            q.type != svc::QueryType::Energy)
            continue;
        const core::Scenario &scenario = core::scenarioByName(q.scenario);
        core::Budget budget = core::makeBudget(hcm::itrs::nodeParams(q.node),
                                               q.workload, scenario);
        core::OptimizerOptions opts;
        opts.alpha = scenario.alpha;
        opts.objective = q.type == svc::QueryType::Optimize
                             ? core::Objective::MaxSpeedup
                             : core::Objective::MinEnergy;
        double f_eff = core::effectiveFraction(q.f, scenario.segments);
        for (const core::Organization &org :
             core::paperOrganizations(q.workload)) {
            core::EffectiveOrg eff =
                core::effectiveOrganization(org, scenario.segments);
            assign_ns.push_back(
                nsOf([&] { evaluator.assign(eff.org, budget, opts); }));
            best_ns.push_back(nsOf(
                [&] { g_sink += evaluator.best(f_eff).feasible; }, 4));
        }
    }
    report.set("core.batch.assign_ns", median(assign_ns));
    report.set("core.batch.best_ns", median(best_ns));

    // Engine: each distinct query once as a miss, then once as a hit.
    // Half the cache's entries at most, so no shard of its LRU overflows
    // and turns the second pass into misses.
    {
        svc::QueryEngine engine(singleThreadEngine());
        std::unordered_set<std::string> seen;
        std::vector<std::size_t> distinct;
        for (std::size_t i = 0; i < n && distinct.size() < 2048; ++i)
            if (seen.insert(keys[i]).second)
                distinct.push_back(i);
        std::vector<double> miss_us, hit_us, handoff_us;
        for (std::size_t i : distinct) {
            double miss =
                nsOf([&] { g_sink += engine.evaluate(queries[i])->ok(); }) /
                1e3;
            miss_us.push_back(miss);
            handoff_us.push_back(miss - eval_us[i] - key_ns[i] / 1e3);
        }
        for (std::size_t i : distinct)
            hit_us.push_back(
                nsOf([&] { g_sink += engine.evaluate(queries[i])->ok(); }) /
                1e3);
        report.set("svc.engine.miss_us", median(miss_us));
        report.set("svc.engine.hit_us", median(hit_us));
        report.set("svc.engine.handoff_us", median(handoff_us));
        ledger.handoffUs = medianOr0(handoff_us);
    }

    // Cache lookups in stream order, inserting on a miss as the engine
    // does; the value is irrelevant to the lookup.
    {
        svc::QueryCache cache(4096);
        auto value = std::make_shared<const svc::QueryResult>();
        for (const std::string &p : in.warmup)
            cache.put(svc::parseQueryRequestText(p).query.canonicalKey(),
                      value);
        std::vector<double> lookup_ns;
        for (const std::string &key : keys) {
            bool hit = false;
            lookup_ns.push_back(
                nsOf([&] { hit = cache.get(key) != nullptr; }));
            if (!hit)
                cache.put(key, value);
        }
        report.set("svc.cache.lookup_ns", median(lookup_ns));
        ledger.lookupUs = medianOr0(lookup_ns) / 1e3;
    }

    // Router over one engine: route time plus the engine's cache stats
    // for the stream, counted after the warm-up.
    {
        svc::QueryEngine engine(singleThreadEngine());
        svc::RequestRouter router(engine);
        for (const std::string &p : in.warmup)
            g_sink += router.route(p).served;
        svc::CacheStats before = engine.cacheStats();
        std::vector<double> route_us;
        for (const std::string &p : in.payloads)
            route_us.push_back(
                nsOf([&] { g_sink += router.route(p).served; }) / 1e3);
        svc::CacheStats after = engine.cacheStats();
        double lookups = static_cast<double>(after.lookups() -
                                             before.lookups());
        report.set("svc.router.route_us", median(route_us));
        if (lookups > 0)
            report.set("svc.cache.hit_ratio",
                       static_cast<double>(after.hits - before.hits) /
                           lookups);
        report.set("svc.cache.evictions",
                   static_cast<double>(after.evictions - before.evictions));
    }

    // Front door over two shard engines: its own time is handle() minus
    // the owning shard's route, which the timed backend measures.
    {
        std::vector<std::unique_ptr<svc::QueryEngine>> engines;
        std::vector<TimedBackend *> timed;
        std::vector<std::unique_ptr<hcm::net::ShardBackend>> backends;
        for (std::size_t s = 0; s < 2; ++s) {
            engines.push_back(
                std::make_unique<svc::QueryEngine>(singleThreadEngine()));
            auto backend = std::make_unique<TimedBackend>(
                "shard-" + std::to_string(s), *engines.back());
            timed.push_back(backend.get());
            backends.push_back(std::move(backend));
        }
        hcm::net::FrontDoor front(std::move(backends));
        for (const std::string &p : in.warmup)
            g_sink += front.handle(p).size();
        std::vector<double> self_us;
        for (const std::string &p : in.payloads) {
            for (TimedBackend *b : timed)
                b->clear();
            double total = nsOf([&] { g_sink += front.handle(p).size(); });
            double inner = 0.0;
            for (TimedBackend *b : timed)
                inner = std::max(inner, b->lastNs());
            self_us.push_back((total - inner) / 1e3);
        }
        std::map<std::string, double> share;
        for (const std::string &key : keys)
            share[*front.shardForKey(key)] += 1.0;
        double top = 0.0;
        for (const auto &[name, count] : share)
            top = std::max(top, count / static_cast<double>(n));
        report.set("net.front_door.self_us", median(self_us));
        if (n > 0)
            report.set("net.front_door.shard_share_max", top);
    }

    // Frames: the server decodes each request and encodes each answer.
    {
        std::vector<double> encode_ns, decode_ns;
        for (const std::string &body : bodies)
            encode_ns.push_back(nsOf(
                [&] { g_sink += hcm::net::encodeFrame(body).size(); }, 4));
        std::string out;
        for (const std::string &p : in.payloads) {
            std::string frame = hcm::net::encodeFrame(p);
            decode_ns.push_back(nsOf(
                [&] {
                    hcm::net::FrameDecoder decoder;
                    decoder.feed(frame);
                    g_sink += decoder.next(&out);
                },
                4));
        }
        report.set("net.frame.encode_ns", median(encode_ns));
        report.set("net.frame.decode_ns", median(decode_ns));
        ledger.encodeUs = medianOr0(encode_ns) / 1e3;
        ledger.decodeUs = medianOr0(decode_ns) / 1e3;
    }

    // Loopback floor: an empty frame through a TcpServer and back, sent
    // at the spacing one connection sees in the open loop, so the floor
    // includes waking idle threads (and CPUs) the way a request does.
    {
        hcm::net::TcpServer server(hcm::net::TcpServerOptions{},
                                   [](const std::string &) {
                                       return std::string();
                                   });
        std::string error;
        if (!server.start(&error))
            throw std::runtime_error("rtt server failed: " + error);
        std::vector<double> rtt_us;
        {
            Connection conn(server.port());
            std::string reply;
            auto spacing = std::chrono::nanoseconds(
                static_cast<std::int64_t>(in.spacingUs * 1e3));
            Clock::time_point due = Clock::now();
            for (int i = 0; i < 1100; ++i) {
                due += spacing;
                std::this_thread::sleep_until(due);
                bool ok = true;
                double us =
                    nsOf([&] { ok = conn.send("") && conn.receive(&reply); }) /
                    1e3;
                if (!ok)
                    break;
                if (i >= 100) // the first round trips warm the path
                    rtt_us.push_back(us);
            }
        }
        server.stop();
        report.set("net.rtt_empty_us", median(rtt_us));
        ledger.rttEmptyUs = medianOr0(rtt_us);
    }
    return ledger;
}

void
reportSweepLayers(const std::vector<SweepTiming> &timings, Report &report)
{
    std::vector<double> spec_ms, run_ms, csv_ms;
    for (const SweepTiming &t : timings) {
        spec_ms.push_back(t.specMs);
        run_ms.push_back(t.runMs);
        csv_ms.push_back(t.csvMs);
    }
    report.set("sweep.spec_ms", median(spec_ms));
    report.set("sweep.run_ms", median(run_ms));
    report.set("sweep.csv_ms", median(csv_ms));
    if (!timings.empty())
        report.set("sweep.csv_bytes",
                   static_cast<double>(timings.front().digest.bytes));
}

} // namespace perfbench
