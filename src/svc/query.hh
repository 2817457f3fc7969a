/**
 * @file
 * Typed queries over the analytical model — the vocabulary of the
 * design-space query engine. Each query names one model computation
 * (a design-point optimization, a projection series, a min-energy
 * design, or a Pareto frontier) plus its inputs, and packs into a
 * fixed-size canonical key so identical requests dedupe and memoize
 * regardless of how they were spelled. evaluateQuery() is a pure
 * function of the query (the model data is immutable after startup),
 * which is what makes both the cache and multi-threaded evaluation
 * sound.
 */

#ifndef HCM_SVC_QUERY_HH
#define HCM_SVC_QUERY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/bounds.hh"
#include "devices/device.hh"
#include "util/json.hh"
#include "workloads/workload.hh"

namespace hcm {
namespace svc {

/** The model computations the engine serves. */
enum class QueryType {
    Optimize,   ///< best design per organization at one node
    Projection, ///< per-organization series across all ITRS nodes
    Energy,     ///< min-energy design per organization at one node
    Pareto,     ///< speedup/energy frontier at one node
};

/** All query types, in enum order. */
const std::vector<QueryType> &allQueryTypes();

/** Wire name ("optimize", "projection", "energy", "pareto"). */
std::string queryTypeName(QueryType type);

/** Inverse of queryTypeName(); nullopt when unknown. */
std::optional<QueryType> queryTypeByName(const std::string &name);

/** One request against the model. */
struct Query
{
    QueryType type = QueryType::Optimize;
    wl::Workload workload = wl::Workload::fft(1024);
    double f = 0.99;
    std::string scenario = "baseline";
    /** Technology node in nm; ignored by Projection (all nodes). */
    double node = 22.0;
    /** Restrict HET organizations to one device; empty = all. */
    std::optional<dev::DeviceId> device;
    /**
     * Per-request deadline measured from engine admission; 0 means
     * "use the engine default" (which may itself be "none"). Not part
     * of the canonical key: a deadline shapes delivery, not identity.
     */
    std::uint64_t deadlineNs = 0;
    /**
     * Trace context: the id minted at the request's ingress (or
     * supplied by the client) that stitches this hop's spans, logs,
     * and flight-recorder entry to the rest of the request's journey.
     * Like the deadline, never part of the canonical key — identity is
     * what is computed, not which request asked.
     */
    std::string requestId;
    /**
     * Echo the requestId in error responses. Set only when the client
     * put the id on the wire itself; ids minted server-side stay out
     * of responses so response bytes are independent of tracing.
     */
    bool requestIdEcho = false;

    /**
     * Identity as a fixed binary record: two queries produce the same
     * key iff they request the same computation. One byte packs the
     * type, device filter and node index (no node for Projection),
     * then the scenario's registry index, the workload kind and FFT
     * size, and the 8 bytes of f: 11 bytes, inside std::string's
     * small buffer, so no key allocates. A node or scenario outside
     * its registry follows in full. The bytes may hold NULs; the
     * cache, in-flight and batch dedup and the shard ring key on them,
     * and logs print the query's fields instead.
     */
    std::string canonicalKey() const;
};

/**
 * One evaluated design in a result (one table row). Its names are
 * indices, which the answer's schema (svc/answer_codec.hh) writes as
 * one code each.
 */
struct ResultRow
{
    std::uint8_t org = 0;  ///< the organization's paperIndex
    std::uint8_t node = 0; ///< the node's position in itrs::nodeTable()
    bool feasible = false;
    core::Limiter limiter = core::Limiter::Area; ///< set when feasible
    double r = 0.0;
    double n = 0.0;
    double speedup = 0.0;
    double energyNormalized = 0.0;
};

/**
 * How a query failed. Every value past None maps onto one wire-level
 * "type" string; see queryErrorKindName().
 */
enum class QueryErrorKind {
    None,             ///< success
    EvaluationFailed, ///< evaluateQuery threw
    DeadlineExceeded, ///< deadline passed before delivery
    Overloaded,       ///< admission rejected (queue full or shutdown)
    ShardUnavailable, ///< owning net shard unreachable or lost
};

/** Wire name ("evaluation_failed", "deadline_exceeded", "overloaded",
 *  "shard_unavailable"); empty for None. */
std::string queryErrorKindName(QueryErrorKind kind);

struct QueryResult;

/**
 * A rendered answer: the bytes a client receives for one query, and
 * whether they say success. This is the engine's product and the
 * cache's value; a memoized entry holds nothing else — no Query, no
 * rows, no request id. renderAnswer() makes each one a single heap
 * block: the shared_ptr control block, this 8-byte header (the error
 * kind and the packed length) and, right behind the header, the
 * packed bytes (svc/answer_codec.hh). They are read only by expanding
 * them into the caller's buffer. An Answer is never copied on its
 * own: a copy would leave its bytes behind.
 */
struct Answer
{
    /** The key to the block constructor: only renderAnswer() makes one. */
    class InBlock
    {
        InBlock() = default;
        friend std::shared_ptr<const Answer>
        renderAnswer(const QueryResult &result);
    };

    QueryErrorKind errorKind = QueryErrorKind::None;

    Answer() = default;

    /**
     * The header of a block with @p packed.size() spare bytes behind
     * it; copies @p packed there.
     */
    Answer(InBlock, QueryErrorKind kind, std::string_view packed);

    bool ok() const { return errorKind == QueryErrorKind::None; }

    /** Length of the answer's bytes. */
    std::size_t size() const;

    /** Append the answer's bytes to @p out. */
    void appendTo(std::string &out) const;

    /** Splice the answer's bytes into @p json as one value. */
    void writeTo(JsonWriter &json) const;

    /** Bytes the packed form holds (what the cache keeps per entry). */
    std::size_t packedBytes() const { return _packedSize; }

  protected:
    /**
     * The header alone, for QueryResult, whose Answer part never holds
     * bytes (its packed length stays 0).
     */
    Answer(const Answer &other) : errorKind(other.errorKind) {}

    Answer &
    operator=(const Answer &other)
    {
        errorKind = other.errorKind;
        return *this;
    }

  private:
    std::string_view
    packed() const
    {
        return {reinterpret_cast<const char *>(this + 1), _packedSize};
    }

    std::uint32_t _packedSize = 0;
};

/**
 * The answer to one query before packing: rows on success, a
 * structured error otherwise. renderAnswer() packs it; the inherited
 * bytes stay empty here. It is an Answer so that a pointer to one
 * converts to the cache's value type.
 */
struct QueryResult : Answer
{
    Query query;
    std::vector<ResultRow> rows;
    std::string error; ///< human-readable reason; empty on success
    /** Overloaded only: client hint for when to retry. */
    std::uint64_t retryAfterMs = 0;

    /**
     * The answer as one compact JSON document: {"query": {...},
     * "rows": [...]} on success, or the error object {"error": ...,
     * "type": ..., ["retryAfterMs": ...,] ["requestId": ...,]
     * "query": {...}}. Packed, then expanded, as a hit reads it.
     */
    std::string toJson() const;
};

/**
 * @p result packed (svc/answer_codec.hh) into a per-thread scratch
 * buffer, then copied behind the header of a new one-block Answer.
 */
std::shared_ptr<const Answer> renderAnswer(const QueryResult &result);

/** An error-carrying result for @p q (rows empty, ok() false). */
QueryResult makeQueryError(const Query &q, QueryErrorKind kind,
                           std::string why,
                           std::uint64_t retry_after_ms = 0);

/**
 * Evaluate @p q against the model. Pure and thread-safe: no mutable
 * global state is touched, so concurrent calls and memoized replays
 * return bit-identical results.
 */
QueryResult evaluateQuery(const Query &q);

} // namespace svc
} // namespace hcm

#endif // HCM_SVC_QUERY_HH
