/**
 * @file
 * Wire format of the query service, the one home of every decision
 * about it that the router, the net front door, the batch runner, the
 * TCP server and the load generator share: what a request text is
 * (query, batch document, control verb, or error), which member of a
 * batch document holds its requests, the {"error": why} body, the
 * error type of an answer, the {"results": [...]} envelope, and the
 * control verbs' "format" check. Every field is validated non-fatally
 * (unknown scenario, bad node, malformed workload spec, ...) so a
 * server can answer one bad request with an error instead of dying;
 * the sweep spec and the CLI share these checks. The request schema:
 *
 *   {"type": "optimize" | "projection" | "energy" | "pareto",
 *    "workload": "mmm" | "bs" | "fft:N",   // N in 64|1024|16384;
 *                                          // default "fft:1024"
 *    "f": 0.99,                            // parallel fraction
 *    "scenario": "baseline" | ...,         // Section 6.2 names
 *    "node": 40|32|22|16|11,               // ignored by projection
 *    "device": "gtx285"|"gtx480"|"r5870"|"lx760"|"asic",  // optional
 *    "deadlineMs": 250,   // optional per-request deadline (> 0)
 *    "requestId": "a1b2..."}  // optional trace context (see
 *                             // obs/request_id.hh for the charset)
 */

#ifndef HCM_SVC_REQUEST_HH
#define HCM_SVC_REQUEST_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "svc/query.hh"
#include "util/json.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace svc {

/** Outcome of parsing one request. */
struct RequestParse
{
    bool ok = false;
    Query query;
    std::string error;

    static RequestParse
    failure(std::string why)
    {
        RequestParse out;
        out.error = std::move(why);
        return out;
    }
};

/** Parse one request object (already-parsed JSON) into a Query. */
RequestParse parseQueryRequest(const JsonValue &v);

/** Parse one request from raw JSON text (serve mode's line format). */
RequestParse parseQueryRequestText(const std::string &text);

/**
 * The raw bytes of each request in batch document @p text (a top-level
 * array, or an object whose last "requests" member is one), in order.
 * Callers forward them verbatim: re-serializing through JsonWriter
 * would round doubles to 12 significant digits and change canonical
 * keys. Nullopt when @p text is not a batch document; empty when its
 * "requests" member is not an array.
 */
std::optional<std::vector<std::string>> splitBatchRequestTexts(
    const std::string &text);

/** A batch document's requests: raw texts and the queries they hold. */
struct BatchRequests
{
    std::vector<std::string> texts;
    std::vector<Query> queries; ///< queries[i] is parsed from texts[i]
};

/**
 * Parse a batch document (see splitBatchRequestTexts()). Returns its
 * requests, or sets @p error (with the offending index) and returns
 * nullopt.
 */
std::optional<BatchRequests> parseBatchDocument(const std::string &text,
                                                std::string *error);

/** What one request text is, decided once for every transport. */
struct ParsedRequest
{
    enum class Kind { Query, Batch, Verb, Invalid };

    Kind kind = Kind::Invalid;
    Query query;                  ///< Kind::Query
    BatchRequests batch;          ///< Kind::Batch
    std::string verb;             ///< Kind::Verb: the "type" member
    std::optional<JsonValue> doc; ///< Kind::Verb: the whole document
    /** Why @p text is no query or batch (the answer to unknown verbs). */
    std::string error;
};

/**
 * Classify @p text: a single query (parsed first, so a query costs one
 * parse), else a batch document, else an object with a string "type"
 * (a control verb for the endpoint to dispatch), else invalid.
 */
ParsedRequest classifyRequest(const std::string &text);

/**
 * The control verb's "format" member: "json" when absent, "prom" only
 * where @p prom_ok. Anything else returns nullopt after setting @p body
 * to {"error":"<verb> format must be json[ or prom]"}.
 */
std::optional<std::string> verbFormat(const ParsedRequest &request,
                                      bool prom_ok, std::string *body);

/**
 * The metrics verb's "scope" member: "svc" when absent, else "svc" or
 * "all". Anything else returns nullopt after setting @p body to
 * {"error":"metrics scope must be svc or all"}.
 */
std::optional<std::string> metricsScope(const ParsedRequest &request,
                                        std::string *body);

/** The {"error": @p why} answer body. */
std::string errorBody(std::string_view why);

/**
 * The error type of answer @p body: "" for a success, else its "type"
 * ("overloaded", ...), or "error" when it has none (a transport-level
 * frame rejection). Errors lead with "error", so only they are parsed.
 */
std::string responseErrorType(const std::string &body);

/**
 * Write the batch answer {"results":[...]}, answer i in input order by
 * @p answer(i), then any members @p trailer adds (`hcm batch` metrics).
 */
void writeBatchAnswer(JsonWriter &json, std::size_t count,
                      const std::function<void(std::size_t)> &answer,
                      const std::function<void()> &trailer = nullptr);

/**
 * Splice "requestId": @p rid into the raw request text @p text without
 * re-serializing it (which would round doubles and change canonical
 * keys). The member is inserted immediately after the opening '{', so
 * a duplicate "requestId" later in the text wins under the parser's
 * last-occurrence rule — callers tag only requests that lack one.
 * Nullopt when @p text is not a JSON object.
 */
std::optional<std::string> injectRequestId(const std::string &text,
                                           const std::string &rid);

/** The workload spelling ("mmm", "bs", "fft:N" for any power of two
 *  N >= 2, any case). Only the cache-traffic model takes every N. */
std::optional<wl::Workload> parseWorkloadSpec(const std::string &spec,
                                              std::string *error);

/** True when the model can evaluate @p w (one of
 *  dev::table5Workloads()); else false + *error. */
bool checkCalibrated(const wl::Workload &w, std::string *error);

/** parseWorkloadSpec() + checkCalibrated(): for input to the model. */
std::optional<wl::Workload> parseModelWorkload(const std::string &spec,
                                               std::string *error);

/** Device name parser ("asic", "gtx285", ...); nullopt when unknown. */
std::optional<dev::DeviceId> parseDeviceName(const std::string &name);

/**
 * @p ms milliseconds as whole nanoseconds (truncated), for the
 * duration knobs where 0 ns means "off". Nullopt + *error when @p ms
 * is not a finite number >= 0, when the nanoseconds do not fit 64
 * bits, and when a positive @p ms is under one nanosecond (it would
 * truncate to 0 and silently turn the knob off).
 */
std::optional<std::uint64_t> msToNs(double ms, std::string *error);

} // namespace svc
} // namespace hcm

#endif // HCM_SVC_REQUEST_HH
