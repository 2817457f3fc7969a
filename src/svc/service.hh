/**
 * @file
 * Front-ends over the query engine, shared by `hcm batch` and
 * `hcm serve`:
 *
 *  - runBatch(): evaluate one JSON batch document and emit a single
 *    response {"results": [...], "metrics": {...}} — every result in
 *    input order (failed queries render as in-place error objects),
 *    metrics covering latency per query type and cache hit rate.
 *  - runServe(): line-delimited JSON loop — one request per input
 *    line, one response per output line; {"type": "metrics"} returns
 *    the metrics payload; malformed requests get {"error": ...}
 *    without ending the session, and failed evaluations (thrown,
 *    deadline-exceeded, shed by admission control) get a structured
 *    {"error": ..., "type": ...} line instead of hanging the loop.
 *  - metricsPayload(): every metrics payload — the metrics verb's, the
 *    batch response's "metrics" member, and --metrics-out's.
 */

#ifndef HCM_SVC_SERVICE_HH
#define HCM_SVC_SERVICE_HH

#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "svc/engine.hh"

namespace hcm {
namespace svc {

/**
 * The metrics payload for @p engine, or for the process alone when it
 * is null, in @p format ("json" or "prom") and @p scope ("svc" or
 * "all"):
 *  - prom: the engine's series, then obs::globalRegistry()'s, every
 *    line ending in a newline, whatever the scope;
 *  - json, scope svc: the engine's document, or without an engine the
 *    process registry's;
 *  - json, scope all: {"svc": <engine document>, "process": <process
 *    registry>}, with no "svc" member without an engine.
 */
std::string metricsPayload(const QueryEngine *engine,
                           std::string_view format,
                           std::string_view scope);

/**
 * Evaluate the batch document in @p text through @p engine, writing
 * the response JSON to @p out. Returns false (with @p error set) when
 * the document does not parse; a failing evaluation renders as an
 * error object at its input-order position, not a document failure.
 * With @p results_only the metrics member is omitted, leaving exactly
 * {"results": [...]} — byte-comparable against a net front door's
 * response to the same batch (the CI sharding smoke relies on this).
 */
bool runBatch(const std::string &text, QueryEngine &engine,
              std::ostream &out, std::string *error,
              bool results_only = false);

/**
 * Serve line-delimited JSON requests from @p in until EOF, one
 * response line each (dispatch shared with the TCP transport via
 * RequestRouter, so batch documents on one line answer
 * {"results": [...]}). Returns the number of successfully served
 * queries; parse failures and error results answer with an error line
 * and do not count.
 */
std::size_t runServe(std::istream &in, std::ostream &out,
                     QueryEngine &engine);

} // namespace svc
} // namespace hcm

#endif // HCM_SVC_SERVICE_HH
