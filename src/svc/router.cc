#include "router.hh"

#include <sstream>

#include "obs/metrics.hh"
#include "obs/request_id.hh"
#include "obs/trace.hh"
#include "prof/profiler.hh"
#include "svc/flight_recorder.hh"
#include "svc/request.hh"
#include "util/format.hh"

namespace hcm {
namespace svc {
namespace {

std::string
errorBody(const std::string &why)
{
    std::string body;
    JsonWriter json(body);
    json.beginObject();
    json.kv("error", why);
    json.endObject();
    return body;
}

/** The "format" member as a validated string; @p fallback when absent. */
bool
formatField(const JsonValue &doc, const char *fallback,
            std::string *format)
{
    const JsonValue *field = doc.find("format");
    if (!field) {
        *format = fallback;
        return true;
    }
    if (!field->isString())
        return false;
    *format = field->asString();
    return true;
}

} // namespace

RouteReply
RequestRouter::route(const std::string &text)
{
    RouteReply reply;
    RequestParse parsed = parseQueryRequestText(text);
    if (parsed.ok) {
        // This router is an ingress: a query arriving without trace
        // context gets one minted here so every downstream span, log
        // line, and flight-recorder entry is joinable. Minted ids are
        // never echoed (requestIdEcho stays false), keeping response
        // bytes identical whether or not tracing is in play.
        if (parsed.query.requestId.empty())
            parsed.query.requestId = obs::mintRequestId();
        QueryEngine::ResultPtr result = _engine.evaluate(parsed.query);
        reply.body = result->toJson();
        reply.served = result->ok() ? 1 : 0;
        return reply;
    }

    // Not a single query. Control verbs ("metrics", "trace",
    // "profile") and batch documents fail normal parsing; dispatch on
    // the document shape before falling back to the parse error.
    auto doc = JsonValue::parse(text, nullptr);
    if (doc && (doc->isArray() ||
                (doc->isObject() && doc->find("requests")))) {
        std::string error;
        auto queries = parseBatchDocument(text, &error);
        if (!queries) {
            reply.body = errorBody(error);
            return reply;
        }
        for (Query &q : *queries)
            if (q.requestId.empty())
                q.requestId = obs::mintRequestId();
        std::vector<QueryEngine::ResultPtr> results =
            _engine.evaluateBatch(*queries);
        JsonWriter json(reply.body);
        json.beginObject();
        json.key("results").beginArray();
        for (const QueryEngine::ResultPtr &result : results) {
            result->writeJson(json);
            reply.served += result->ok() ? 1 : 0;
        }
        json.endArray();
        json.endObject();
        return reply;
    }
    if (doc && doc->isObject()) {
        const JsonValue *type = doc->find("type");
        if (type && type->isString() && type->asString() == "metrics") {
            std::string format;
            if (!formatField(*doc, "json", &format) ||
                (format != "json" && format != "prom")) {
                reply.body =
                    errorBody("metrics format must be json or prom");
                return reply;
            }
            // "scope" widens the JSON payload: "svc" (the default,
            // byte-compatible with pre-fleet clients) is the engine's
            // own registry; "all" wraps it with the process-wide one,
            // which is what the fleet collector scrapes for queue
            // depth, uptime, and RSS.
            std::string scope = "svc";
            if (const JsonValue *field = doc->find("scope")) {
                if (!field->isString() ||
                    (field->asString() != "svc" &&
                     field->asString() != "all")) {
                    reply.body =
                        errorBody("metrics scope must be svc or all");
                    return reply;
                }
                scope = field->asString();
            }
            if (format == "prom") {
                // Prometheus text is multi-line; keep the trailing
                // newline so the line transport's delimiter becomes
                // the blank line that terminates the block.
                std::ostringstream oss;
                _engine.writeMetricsProm(oss);
                obs::globalRegistry().writePrometheus(oss);
                reply.body = oss.str();
                return reply;
            }
            JsonWriter json(reply.body);
            if (scope == "all") {
                json.beginObject();
                json.key("svc");
                _engine.writeMetricsJson(json);
                json.key("process");
                obs::globalRegistry().writeJson(json);
                json.endObject();
            } else {
                _engine.writeMetricsJson(json);
            }
            return reply;
        }
        if (type && type->isString() &&
            type->asString() == "requests") {
            std::string format;
            if (!formatField(*doc, "json", &format) ||
                format != "json") {
                reply.body = errorBody("requests format must be json");
                return reply;
            }
            // The flight recorder's ring as one JSON body (capacity 0
            // and no records when the process never sized it).
            JsonWriter json(reply.body);
            FlightRecorder::instance().writeJson(json);
            return reply;
        }
        if (type && type->isString() && type->asString() == "trace") {
            // Only JSON exists for traces; reject anything else
            // instead of silently ignoring the field.
            std::string format;
            if (!formatField(*doc, "json", &format) ||
                format != "json") {
                reply.body = errorBody("trace format must be json");
                return reply;
            }
            // The accumulated Chrome trace as one response body
            // (empty traceEvents when tracing is off).
            std::ostringstream oss;
            obs::Tracer::instance().writeChromeTrace(oss);
            reply.body = oss.str();
            return reply;
        }
        if (type && type->isString() && type->asString() == "profile") {
            std::string format;
            if (!formatField(*doc, "json", &format) ||
                format != "json") {
                reply.body = errorBody("profile format must be json");
                return reply;
            }
            // The aggregated profile tree as one JSON body (empty
            // roots when profiling is off).
            std::ostringstream oss;
            prof::Profiler::instance().writeJson(oss);
            reply.body = oss.str();
            return reply;
        }
    }
    reply.body = errorBody(parsed.error);
    return reply;
}

} // namespace svc
} // namespace hcm
