#include "service.hh"

#include <sstream>

#include "obs/metrics.hh"
#include "svc/request.hh"
#include "svc/router.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace hcm {
namespace svc {

std::string
metricsPayload(const QueryEngine *engine, std::string_view format,
               std::string_view scope)
{
    const obs::Registry &process = obs::globalRegistry();
    if (format == "prom") {
        std::ostringstream out;
        if (engine)
            engine->writeMetricsProm(out);
        process.writePrometheus(out);
        return out.str();
    }
    std::string body;
    JsonWriter json(body);
    if (scope == "all") {
        json.beginObject();
        if (engine) {
            json.key("svc");
            engine->writeMetricsJson(json);
        }
        json.key("process");
        process.writeJson(json);
        json.endObject();
    } else if (engine) {
        engine->writeMetricsJson(json);
    } else {
        process.writeJson(json);
    }
    return body;
}

bool
runBatch(const std::string &text, QueryEngine &engine, std::ostream &out,
         std::string *error, bool results_only)
{
    auto batch = parseBatchDocument(text, error);
    if (!batch)
        return false;

    std::vector<QueryEngine::ResultPtr> answers =
        engine.evaluateBatch(batch->queries);

    JsonWriter json(out);
    std::function<void()> metrics;
    if (!results_only)
        metrics = [&] {
            json.key("metrics");
            json.raw(metricsPayload(&engine, "json", "svc"));
        };
    writeBatchAnswer(
        json, answers.size(),
        [&](std::size_t i) { answers[i]->writeTo(json); }, metrics);
    out << "\n";
    hcm_debug("batch served", logField("queries", answers.size()),
              logField("threads", engine.threadCount()));
    return true;
}

std::size_t
runServe(std::istream &in, std::ostream &out, QueryEngine &engine)
{
    // One dispatch path for every transport: the stdin loop only adds
    // line framing around the shared RequestRouter (the TCP server
    // adds length-prefixed frames around the same router).
    RequestRouter router(engine);
    std::size_t served = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (trim(line).empty())
            continue;
        RouteReply reply = router.route(line);
        out << reply.body << "\n" << std::flush;
        served += reply.served;
    }
    hcm_inform("serve session ended", logField("served", served),
               logField("cacheHitRate",
                        engine.cacheStats().hitRate()));
    return served;
}

} // namespace svc
} // namespace hcm
