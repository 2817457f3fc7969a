/**
 * @file
 * Transport-agnostic request dispatch, extracted from the serve loop
 * so stdin/stdout serving and the net subsystem's TCP framing share
 * one path. A RequestRouter turns one request text into one response
 * body: typed queries evaluate on the engine, batch documents fan out
 * through evaluateBatch() and answer {"results": [...]}, and the
 * control verbs (metrics/trace/profile) answer from the process-wide
 * collectors. Malformed requests answer {"error": ...}; the router
 * never throws for bad input.
 *
 * Response bodies carry no trailing newline; the transport adds its
 * own delimiter (a newline for the line protocol, a length prefix for
 * TCP frames). The one exception is the multi-line Prometheus metrics
 * body, which ends with a newline so the line transport's extra
 * delimiter reads as the blank-line block terminator.
 */

#ifndef HCM_SVC_ROUTER_HH
#define HCM_SVC_ROUTER_HH

#include <cstddef>
#include <string>

#include "svc/engine.hh"
#include "svc/request.hh"

namespace hcm {
namespace svc {

/** One routed response. */
struct RouteReply
{
    std::string body;        ///< complete response text
    std::size_t served = 0;  ///< queries answered successfully
};

/** Dispatches request texts onto one query engine. */
class RequestRouter
{
  public:
    explicit RequestRouter(QueryEngine &engine) : _engine(engine) {}

    RequestRouter(const RequestRouter &) = delete;
    RequestRouter &operator=(const RequestRouter &) = delete;

    /**
     * Answer one request: a single query object, a batch document
     * (top-level array or {"requests": [...]}), or a control verb
     * ({"type": "metrics"|"trace"|"profile"}). Blocks until the
     * engine resolves every query involved — which it always does,
     * with an error result at worst.
     */
    RouteReply route(const std::string &text);

    QueryEngine &engine() { return _engine; }

  private:
    /**
     * Answer the control verb @p request into @p body; false when the
     * verb is not one this router serves.
     */
    bool answerVerb(const ParsedRequest &request, std::string *body);

    QueryEngine &_engine;
};

} // namespace svc
} // namespace hcm

#endif // HCM_SVC_ROUTER_HH
