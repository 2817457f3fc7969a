#include "request.hh"

#include <cmath>
#include <sstream>

#include "core/scenario.hh"
#include "devices/measured.hh"
#include "itrs/scaling.hh"
#include "obs/request_id.hh"
#include "util/format.hh"

namespace hcm {
namespace svc {

// Scenario lookups go through core::findScenario — the one
// case-insensitive registry shared with scenarioByName and the sweep
// spec parser.

std::optional<std::uint64_t>
msToNs(double ms, std::string *error)
{
    auto fail = [&](const char *why) {
        std::ostringstream text;
        text << why << ", got " << ms;
        *error = text.str();
        return std::nullopt;
    };
    if (!(ms >= 0.0) || !std::isfinite(ms))
        return fail("must be a finite number >= 0");
    double ns = ms * 1e6;
    if (ns >= 0x1p64)
        return fail("must be under 1.8e13 ms (2^64 ns)");
    auto whole = static_cast<std::uint64_t>(ns);
    if (ms > 0.0 && whole == 0)
        return fail("must be at least 1e-06 ms (1 ns) when positive");
    return whole;
}

std::optional<wl::Workload>
parseWorkloadSpec(const std::string &spec, std::string *error)
{
    if (iequals(spec, "mmm"))
        return wl::Workload::mmm();
    if (iequals(spec, "bs") || iequals(spec, "blackscholes"))
        return wl::Workload::blackScholes();
    if (iequals(spec, "fft"))
        return wl::Workload::fft(1024);
    if (spec.size() >= 4 && iequals(spec.substr(0, 4), "fft:")) {
        const std::string digits = spec.substr(4);
        auto n = parseNumber<std::size_t>(digits); // digits only
        if (n && *n >= 2 && (*n & (*n - 1)) == 0)
            return wl::Workload::fft(*n);
        if (error)
            *error = "fft size must be a power of two >= 2, got '" +
                     digits + "'";
        return std::nullopt;
    }
    if (error)
        *error = "unknown workload '" + spec +
                 "' (expected mmm, bs, or fft:N)";
    return std::nullopt;
}

bool
checkCalibrated(const wl::Workload &w, std::string *error)
{
    static const std::vector<wl::Workload> calibrated =
        dev::table5Workloads();
    for (const wl::Workload &c : calibrated)
        if (c == w)
            return true;
    if (error)
        *error = "no Table 5 calibration for " + w.name() +
                 " (calibrated FFT sizes: 64, 1024, 16384)";
    return false;
}

std::optional<wl::Workload>
parseModelWorkload(const std::string &spec, std::string *error)
{
    auto w = parseWorkloadSpec(spec, error);
    if (w && !checkCalibrated(*w, error))
        return std::nullopt;
    return w;
}

std::optional<dev::DeviceId>
parseDeviceName(const std::string &name)
{
    static const std::vector<std::pair<std::string, dev::DeviceId>>
        devices = {
            {"gtx285", dev::DeviceId::Gtx285},
            {"gtx480", dev::DeviceId::Gtx480},
            {"r5870", dev::DeviceId::R5870},
            {"lx760", dev::DeviceId::Lx760},
            {"asic", dev::DeviceId::Asic},
        };
    for (const auto &[id_name, id] : devices)
        if (iequals(name, id_name))
            return id;
    return std::nullopt;
}

RequestParse
parseQueryRequest(const JsonValue &v)
{
    if (!v.isObject())
        return RequestParse::failure(
            "request must be a JSON object, got " +
            JsonValue::typeName(v.type()));

    RequestParse out;
    Query &q = out.query;

    const JsonValue *type = v.find("type");
    if (!type || !type->isString())
        return RequestParse::failure(
            "missing required string field 'type'");
    auto parsed_type = queryTypeByName(type->asString());
    if (!parsed_type)
        return RequestParse::failure(
            "unknown query type '" + type->asString() +
            "' (optimize, projection, energy, pareto)");
    q.type = *parsed_type;

    if (const JsonValue *workload = v.find("workload")) {
        if (!workload->isString())
            return RequestParse::failure("'workload' must be a string");
        std::string why;
        auto parsed = parseModelWorkload(workload->asString(), &why);
        if (!parsed)
            return RequestParse::failure(why);
        q.workload = *parsed;
    }

    if (const JsonValue *f = v.find("f")) {
        if (!f->isNumber())
            return RequestParse::failure("'f' must be a number");
        q.f = f->asNumber();
        if (!(q.f >= 0.0 && q.f <= 1.0))
            return RequestParse::failure(
                "'f' must lie in [0, 1], got " +
                std::to_string(q.f));
    }

    if (const JsonValue *scenario = v.find("scenario")) {
        if (!scenario->isString())
            return RequestParse::failure("'scenario' must be a string");
        const core::Scenario *found =
            core::findScenario(scenario->asString());
        if (!found)
            return RequestParse::failure(
                "unknown scenario '" + scenario->asString() + "'");
        // Normalize to the registry spelling so differently-cased
        // requests share one canonical memoization key.
        q.scenario = found->name;
    }

    if (const JsonValue *node = v.find("node")) {
        if (!node->isNumber())
            return RequestParse::failure("'node' must be a number");
        q.node = node->asNumber();
        if (!itrs::findNode(q.node))
            return RequestParse::failure(
                "unknown node " + std::to_string(q.node) +
                " (expected 40, 32, 22, 16, or 11)");
    }

    if (const JsonValue *deadline = v.find("deadlineMs")) {
        if (!deadline->isNumber())
            return RequestParse::failure("'deadlineMs' must be a number");
        double ms = deadline->asNumber();
        if (!(ms > 0.0))
            return RequestParse::failure(
                "'deadlineMs' must be > 0, got " + std::to_string(ms));
        std::string why;
        auto ns = msToNs(ms, &why);
        if (!ns)
            return RequestParse::failure("'deadlineMs' " + why);
        q.deadlineNs = *ns;
    }

    if (const JsonValue *device = v.find("device")) {
        if (!device->isString())
            return RequestParse::failure("'device' must be a string");
        auto id = parseDeviceName(device->asString());
        if (!id)
            return RequestParse::failure(
                "unknown device '" + device->asString() +
                "' (gtx285, gtx480, r5870, lx760, asic)");
        q.device = *id;
    }

    if (const JsonValue *rid = v.find("requestId")) {
        if (!rid->isString())
            return RequestParse::failure("'requestId' must be a string");
        if (!obs::validRequestId(rid->asString()))
            return RequestParse::failure(
                "'requestId' must be 1-" +
                std::to_string(obs::kMaxRequestIdBytes) +
                " characters of [A-Za-z0-9._-]");
        q.requestId = rid->asString();
        q.requestIdEcho = true; // the client asked by name; answer it
    }

    out.ok = true;
    return out;
}

RequestParse
parseQueryRequestText(const std::string &text)
{
    std::string why;
    auto doc = JsonValue::parse(text, &why);
    if (!doc)
        return RequestParse::failure("malformed JSON: " + why);
    return parseQueryRequest(*doc);
}

namespace {

/** First index >= @p i of a non-whitespace byte (JSON whitespace). */
std::size_t
skipJsonSpace(const std::string &s, std::size_t i)
{
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' ||
                            s[i] == '\n' || s[i] == '\r'))
        ++i;
    return i;
}

/**
 * The one batch-shape rule: the requests of batch document @p doc are
 * the document itself when it is an array, else its "requests" member
 * (the last occurrence, by decoded key, as JsonValue::find() picks).
 * Null when @p doc is not a batch document.
 */
const JsonValue *
batchRequests(const JsonValue &doc)
{
    return doc.isArray() ? &doc
           : doc.isObject() ? doc.find("requests")
                            : nullptr;
}

/** The source bytes of each element of @p list, parsed from @p text. */
std::vector<std::string>
memberTexts(const std::string &text, const JsonValue &list)
{
    std::vector<std::string> texts;
    texts.reserve(list.size());
    for (const JsonValue &item : list.items()) {
        auto [begin, end] = item.span();
        texts.push_back(text.substr(begin, end - begin));
    }
    return texts;
}

/** parseBatchDocument() over the already-parsed @p doc of @p text. */
std::optional<BatchRequests>
parseBatch(const std::string &text, const JsonValue &doc,
           std::string *error)
{
    const JsonValue *list = batchRequests(doc);
    if (!list || !list->isArray()) {
        if (error)
            *error = doc.isArray() || doc.isObject()
                         ? "expected {\"requests\": [...]} or a "
                           "top-level array"
                         : "batch document must be an array or object";
        return std::nullopt;
    }
    // Texts and queries come from one parse, so the bytes a front door
    // forwards are exactly the ones validated here.
    BatchRequests out;
    out.texts = memberTexts(text, *list);
    for (std::size_t i = 0; i < list->size(); ++i) {
        RequestParse parsed = parseQueryRequest(list->items()[i]);
        if (!parsed.ok) {
            if (error)
                *error = "request " + std::to_string(i) + ": " +
                         parsed.error;
            return std::nullopt;
        }
        out.queries.push_back(std::move(parsed.query));
    }
    return out;
}

} // namespace

std::optional<std::string>
injectRequestId(const std::string &text, const std::string &rid)
{
    std::size_t open = skipJsonSpace(text, 0);
    if (open >= text.size() || text[open] != '{')
        return std::nullopt;
    std::size_t next = skipJsonSpace(text, open + 1);
    std::string member = "\"requestId\":\"" + rid + "\"";
    if (next < text.size() && text[next] != '}')
        member += ",";
    std::string out = text;
    out.insert(open + 1, member);
    return out;
}

std::optional<BatchRequests>
parseBatchDocument(const std::string &text, std::string *error)
{
    std::string why;
    auto doc = JsonValue::parse(text, &why);
    if (!doc) {
        if (error)
            *error = "malformed JSON: " + why;
        return std::nullopt;
    }
    return parseBatch(text, *doc, error);
}

std::optional<std::vector<std::string>>
splitBatchRequestTexts(const std::string &text)
{
    auto doc = JsonValue::parse(text, nullptr);
    const JsonValue *list = doc ? batchRequests(*doc) : nullptr;
    if (!list)
        return std::nullopt;
    return list->isArray() ? memberTexts(text, *list)
                           : std::vector<std::string>{};
}

ParsedRequest
classifyRequest(const std::string &text)
{
    ParsedRequest out;
    RequestParse parsed = parseQueryRequestText(text);
    if (parsed.ok) {
        out.kind = ParsedRequest::Kind::Query;
        out.query = std::move(parsed.query);
        return out;
    }
    out.error = std::move(parsed.error);
    // Not a single query: control verbs and batch documents fail that
    // parse, so the document is read a second time only here.
    auto doc = JsonValue::parse(text, nullptr);
    if (doc && batchRequests(*doc)) {
        std::string why;
        if (auto batch = parseBatch(text, *doc, &why)) {
            out.kind = ParsedRequest::Kind::Batch;
            out.batch = std::move(*batch);
        } else {
            out.error = std::move(why);
        }
        return out;
    }
    if (doc && doc->isObject()) {
        const JsonValue *type = doc->find("type");
        if (type && type->isString()) {
            out.kind = ParsedRequest::Kind::Verb;
            out.verb = type->asString();
            out.doc = std::move(doc);
        }
    }
    return out;
}

std::optional<std::string>
verbFormat(const ParsedRequest &request, bool prom_ok, std::string *body)
{
    const JsonValue *field = request.doc ? request.doc->find("format")
                                         : nullptr;
    if (!field)
        return "json";
    if (field->isString() && (field->asString() == "json" ||
                              (prom_ok && field->asString() == "prom")))
        return field->asString();
    *body = errorBody(request.verb + " format must be json" +
                      (prom_ok ? " or prom" : ""));
    return std::nullopt;
}

std::optional<std::string>
metricsScope(const ParsedRequest &request, std::string *body)
{
    const JsonValue *field = request.doc ? request.doc->find("scope")
                                         : nullptr;
    if (!field)
        return "svc";
    if (field->isString() && (field->asString() == "svc" ||
                              field->asString() == "all"))
        return field->asString();
    *body = errorBody("metrics scope must be svc or all");
    return std::nullopt;
}

std::string
errorBody(std::string_view why)
{
    std::string body;
    JsonWriter json(body);
    json.beginObject();
    json.kv("error", why);
    json.endObject();
    return body;
}

std::string
responseErrorType(const std::string &body)
{
    if (body.rfind("{\"error\":", 0) != 0)
        return "";
    auto doc = JsonValue::parse(body, nullptr);
    const JsonValue *type =
        doc && doc->isObject() ? doc->find("type") : nullptr;
    return type && type->isString() ? type->asString() : "error";
}

void
writeBatchAnswer(JsonWriter &json, std::size_t count,
                 const std::function<void(std::size_t)> &answer,
                 const std::function<void()> &trailer)
{
    json.beginObject();
    json.key("results").beginArray();
    for (std::size_t i = 0; i < count; ++i)
        answer(i);
    json.endArray();
    if (trailer)
        trailer();
    json.endObject();
}

} // namespace svc
} // namespace hcm
