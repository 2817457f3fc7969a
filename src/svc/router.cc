#include "router.hh"

#include <sstream>

#include "obs/profiler.hh"
#include "obs/request_id.hh"
#include "obs/trace.hh"
#include "svc/flight_recorder.hh"
#include "svc/request.hh"
#include "svc/service.hh"

namespace hcm {
namespace svc {

RouteReply
RequestRouter::route(const std::string &text)
{
    RouteReply reply;
    ParsedRequest request = classifyRequest(text);
    switch (request.kind) {
      case ParsedRequest::Kind::Query: {
        // This router is an ingress: a query arriving without trace
        // context gets one minted here so every downstream span, log
        // line, and flight-recorder entry is joinable. Minted ids are
        // never echoed (requestIdEcho stays false), keeping response
        // bytes identical whether or not tracing is in play.
        if (request.query.requestId.empty())
            request.query.requestId = obs::mintRequestId();
        QueryEngine::ResultPtr answer = _engine.evaluate(request.query);
        answer->appendTo(reply.body);
        reply.served = answer->ok() ? 1 : 0;
        return reply;
      }
      case ParsedRequest::Kind::Batch: {
        std::vector<Query> &queries = request.batch.queries;
        for (Query &q : queries)
            if (q.requestId.empty())
                q.requestId = obs::mintRequestId();
        std::vector<QueryEngine::ResultPtr> answers =
            _engine.evaluateBatch(queries);
        JsonWriter json(reply.body);
        writeBatchAnswer(json, answers.size(), [&](std::size_t i) {
            answers[i]->writeTo(json);
            reply.served += answers[i]->ok() ? 1 : 0;
        });
        return reply;
      }
      case ParsedRequest::Kind::Verb:
        if (answerVerb(request, &reply.body))
            return reply;
        break;
      case ParsedRequest::Kind::Invalid:
        break;
    }
    reply.body = errorBody(request.error);
    return reply;
}

bool
RequestRouter::answerVerb(const ParsedRequest &request, std::string *body)
{
    const std::string &verb = request.verb;
    if (verb != "metrics" && verb != "requests" && verb != "trace" &&
        verb != "profile")
        return false;
    auto format = verbFormat(request, verb == "metrics", body);
    if (!format)
        return true;
    if (verb == "metrics") {
        // "scope" widens the JSON payload: "svc" (the default,
        // byte-compatible with pre-fleet clients) is the engine's own
        // document; "all" wraps it with the process-wide registry,
        // which is what the fleet collector scrapes for queue depth,
        // uptime, and RSS. Prometheus text keeps its trailing newline
        // so the line transport's delimiter becomes the blank line
        // that terminates the block.
        auto scope = metricsScope(request, body);
        if (scope)
            *body = metricsPayload(&_engine, *format, *scope);
    } else if (verb == "requests") {
        // The flight recorder's ring as one JSON body (capacity 0 and
        // no records when the process never sized it).
        JsonWriter json(*body);
        FlightRecorder::instance().writeJson(json);
    } else if (verb == "trace") {
        // The accumulated Chrome trace as one response body (empty
        // traceEvents when tracing is off).
        std::ostringstream oss;
        obs::Tracer::instance().writeChromeTrace(oss);
        *body = oss.str();
    } else {
        // The aggregated profile tree as one JSON body (empty roots
        // when profiling is off).
        std::ostringstream oss;
        obs::Profiler::instance().writeJson(oss);
        *body = oss.str();
    }
    return true;
}

} // namespace svc
} // namespace hcm
