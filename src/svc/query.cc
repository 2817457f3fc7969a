#include "query.hh"

#include "core/pareto.hh"
#include "itrs/scaling.hh"
#include "svc/answer_codec.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace hcm {
namespace svc {
namespace {

/** One design as a result row; the numbers only when it is feasible. */
ResultRow
designRow(std::string org, std::string node,
          const core::DesignPoint &design, double energy_normalized)
{
    ResultRow row;
    row.org = std::move(org);
    row.node = std::move(node);
    row.feasible = design.feasible;
    if (design.feasible) {
        row.r = design.r;
        row.n = design.n;
        row.speedup = design.speedup;
        row.limiter = core::limiterName(design.limiter);
        row.energyNormalized = energy_normalized;
    }
    return row;
}

} // namespace

const std::vector<QueryType> &
allQueryTypes()
{
    static const std::vector<QueryType> types = {
        QueryType::Optimize,
        QueryType::Projection,
        QueryType::Energy,
        QueryType::Pareto,
    };
    return types;
}

std::string
queryTypeName(QueryType type)
{
    switch (type) {
      case QueryType::Optimize:
        return "optimize";
      case QueryType::Projection:
        return "projection";
      case QueryType::Energy:
        return "energy";
      case QueryType::Pareto:
        return "pareto";
    }
    hcm_panic("bad QueryType ", static_cast<int>(type));
}

std::optional<QueryType>
queryTypeByName(const std::string &name)
{
    for (QueryType t : allQueryTypes())
        if (queryTypeName(t) == name)
            return t;
    return std::nullopt;
}

std::string
queryErrorKindName(QueryErrorKind kind)
{
    switch (kind) {
      case QueryErrorKind::None:
        return "";
      case QueryErrorKind::EvaluationFailed:
        return "evaluation_failed";
      case QueryErrorKind::DeadlineExceeded:
        return "deadline_exceeded";
      case QueryErrorKind::Overloaded:
        return "overloaded";
      case QueryErrorKind::ShardUnavailable:
        return "shard_unavailable";
    }
    hcm_panic("bad QueryErrorKind ", static_cast<int>(kind));
}

QueryResult
makeQueryError(const Query &q, QueryErrorKind kind, std::string why,
               std::uint64_t retry_after_ms)
{
    QueryResult result;
    result.query = q;
    result.errorKind = kind;
    result.error = std::move(why);
    result.retryAfterMs = retry_after_ms;
    return result;
}

std::string
Query::canonicalKey() const
{
    std::string key;
    key.reserve(96);
    key += queryTypeName(type);
    key += '|';
    key += workload.name();
    key += "|f=";
    appendDouble17(key, f);
    key += "|s=";
    key += scenario;
    // Projection spans every node, so the node is not part of its
    // identity — leaving it out lets differently-spelled requests share
    // one cache entry.
    if (type != QueryType::Projection) {
        key += "|n=";
        appendDouble17(key, node);
    }
    key += "|d=";
    key += device ? dev::deviceName(*device) : "*";
    return key;
}

void
QueryResult::writeJson(JsonWriter &json) const
{
    json.beginObject();
    // Errors lead with the machine-readable fields so line-oriented
    // clients can dispatch on the first keys; the query echo follows
    // for correlation.
    if (!ok()) {
        json.kv("error", error);
        json.kv("type", queryErrorKindName(errorKind));
        if (retryAfterMs > 0)
            json.kv("retryAfterMs", retryAfterMs);
        // After the dispatch keys, before the echo: clients that sent
        // an id can join the failure to their own records. Success
        // responses never carry the id — cache hits replay bytes to
        // requests with different ids.
        if (query.requestIdEcho && !query.requestId.empty())
            json.kv("requestId", query.requestId);
    }
    json.key("query").beginObject();
    json.kv("type", queryTypeName(query.type));
    json.kv("workload", query.workload.name());
    json.kv("f", query.f);
    json.kv("scenario", query.scenario);
    if (query.type != QueryType::Projection)
        json.kv("node", query.node);
    if (query.device)
        json.kv("device", dev::deviceName(*query.device));
    json.endObject();
    if (!ok()) {
        json.endObject();
        return;
    }
    json.key("rows").beginArray();
    for (const ResultRow &row : rows) {
        json.beginObject();
        json.kv("organization", row.org);
        json.kv("node", row.node);
        json.kv("feasible", row.feasible);
        if (row.feasible) {
            json.kv("r", row.r);
            json.kv("n", row.n);
            json.kv("speedup", row.speedup);
            json.kv("limiter", row.limiter);
            json.kv("energyNormalized", row.energyNormalized);
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

std::string
QueryResult::toJson() const
{
    std::string body;
    // Room for the query echo plus a handful of rows; larger answers
    // (pareto, projection) grow it a few times.
    body.reserve(256 + 160 * rows.size());
    JsonWriter out(body);
    writeJson(out);
    return body;
}

Answer::Answer(std::string_view json, QueryErrorKind kind) : errorKind(kind)
{
    // Packed into a reused buffer, then copied once: the kept string
    // is allocated at its exact size.
    thread_local std::string packed;
    packed.clear();
    packAnswer(json, packed);
    _packed = packed;
}

std::size_t
Answer::size() const
{
    return expandedSize(_packed);
}

void
Answer::appendTo(std::string &out) const
{
    appendExpanded(_packed, out);
}

void
Answer::writeTo(JsonWriter &json) const
{
    json.rawInPlace(size(), kAnswerExpandSlack,
                    [&](char *dst) { expandAnswer(_packed, dst); });
}

Answer
renderAnswer(const QueryResult &result)
{
    thread_local std::string scratch;
    scratch.clear();
    {
        JsonWriter out(scratch);
        result.writeJson(out);
    }
    return Answer(scratch, result.errorKind);
}

QueryResult
evaluateQuery(const Query &q)
{
    QueryResult result;
    result.query = q;
    const core::Scenario &scenario = core::scenarioByName(q.scenario);
    if (q.type == QueryType::Projection) {
        for (const core::ProjectionSeries &series :
             core::projectAll(q.workload, q.f, scenario)) {
            if (!series.org.matchesDevice(q.device))
                continue;
            for (const core::NodePoint &pt : series.points)
                result.rows.push_back(
                    designRow(series.org.name, pt.node.label(), pt.design,
                              pt.energyNormalized()));
        }
        return result;
    }
    // Optimize, Energy and Pareto: designs at one node.
    const itrs::NodeParams &node = itrs::nodeParams(q.node);
    core::OptimizerOptions opts;
    if (q.type == QueryType::Energy)
        opts.objective = core::Objective::MinEnergy;
    std::vector<core::ParetoPoint> points =
        q.type == QueryType::Pareto
            ? core::paretoFrontier(core::enumerateDesigns(
                  q.workload, q.f, node, scenario))
            : core::bestDesigns(q.workload, q.f, node, scenario, q.device,
                                opts);
    for (const core::ParetoPoint &p : points)
        result.rows.push_back(designRow(p.orgName, node.label(), p.design,
                                        p.energyNormalized));
    return result;
}

} // namespace svc
} // namespace hcm
