#include "query.hh"

#include "core/budget.hh"
#include "core/multi_amdahl.hh"
#include "core/optimizer_batch.hh"
#include "core/organization.hh"
#include "core/pareto.hh"
#include "core/projection.hh"
#include "core/scenario.hh"
#include "itrs/scaling.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace hcm {
namespace svc {
namespace {

/** Per-organization rows at one node (Optimize / Energy). */
std::vector<ResultRow>
evaluateAtNode(const Query &q, core::Objective objective)
{
    const core::Scenario &scenario = core::scenarioByName(q.scenario);
    const itrs::NodeParams &node = itrs::nodeParams(q.node);
    core::Budget budget = core::makeBudget(node, q.workload, scenario);
    core::OptimizerOptions opts;
    opts.alpha = scenario.alpha;
    opts.objective = objective;

    // Multi-Amdahl scenarios evaluate at the effective (org, f)
    // reduction; identity for single-f scenarios.
    double f_eff = core::effectiveFraction(q.f, scenario.segments);
    std::vector<ResultRow> rows;
    core::BatchEvaluator evaluator;
    for (const core::Organization &org :
         core::paperOrganizations(q.workload)) {
        if (q.device && org.isHet() && org.device != q.device)
            continue;
        // One SoA evaluator reused across the organization loop: each
        // assign() recycles the previous table's capacity; bit-identical
        // to core::optimize on the same (org, budget, opts).
        core::EffectiveOrg eff =
            core::effectiveOrganization(org, scenario.segments);
        evaluator.assign(eff.org, budget, opts);
        core::DesignPoint dp = evaluator.best(f_eff);
        ResultRow row;
        row.org = org.name;
        row.node = node.label();
        row.feasible = dp.feasible;
        if (dp.feasible) {
            row.r = dp.r;
            row.n = dp.n;
            row.speedup = dp.speedup;
            row.limiter = core::limiterName(dp.limiter);
            row.energyNormalized = core::normalizedEnergy(
                dp.energy, node.relPowerPerTransistor);
        }
        rows.push_back(row);
    }
    return rows;
}

std::vector<ResultRow>
evaluateProjection(const Query &q)
{
    const core::Scenario &scenario = core::scenarioByName(q.scenario);
    std::vector<ResultRow> rows;
    for (const core::ProjectionSeries &series :
         core::projectAll(q.workload, q.f, scenario)) {
        if (q.device && series.org.isHet() &&
            series.org.device != q.device)
            continue;
        for (const core::NodePoint &pt : series.points) {
            ResultRow row;
            row.org = series.org.name;
            row.node = pt.node.label();
            row.feasible = pt.design.feasible;
            if (pt.design.feasible) {
                row.r = pt.design.r;
                row.n = pt.design.n;
                row.speedup = pt.design.speedup;
                row.limiter = core::limiterName(pt.design.limiter);
                row.energyNormalized = pt.energyNormalized();
            }
            rows.push_back(row);
        }
    }
    return rows;
}

std::vector<ResultRow>
evaluatePareto(const Query &q)
{
    const core::Scenario &scenario = core::scenarioByName(q.scenario);
    const itrs::NodeParams &node = itrs::nodeParams(q.node);
    auto frontier = core::paretoFrontier(
        core::enumerateDesigns(q.workload, q.f, node, scenario));
    std::vector<ResultRow> rows;
    for (const core::ParetoPoint &p : frontier) {
        ResultRow row;
        row.org = p.orgName;
        row.node = node.label();
        row.feasible = p.design.feasible;
        row.r = p.design.r;
        row.n = p.design.n;
        row.speedup = p.design.speedup;
        row.limiter = core::limiterName(p.design.limiter);
        row.energyNormalized = p.energyNormalized;
        rows.push_back(row);
    }
    return rows;
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
    if (!this->json.empty()) {
        json.raw(this->json);
        return;
    }
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
    if (!json.empty())
        return json;
    std::string body;
    // Room for the query echo plus a handful of rows; larger answers
    // (pareto, projection) grow it a few times.
    body.reserve(256 + 160 * rows.size());
    JsonWriter out(body);
    writeJson(out);
    return body;
}

QueryResult
evaluateQuery(const Query &q)
{
    QueryResult result;
    result.query = q;
    switch (q.type) {
      case QueryType::Optimize:
        result.rows = evaluateAtNode(q, core::Objective::MaxSpeedup);
        break;
      case QueryType::Energy:
        result.rows = evaluateAtNode(q, core::Objective::MinEnergy);
        break;
      case QueryType::Projection:
        result.rows = evaluateProjection(q);
        break;
      case QueryType::Pareto:
        result.rows = evaluatePareto(q);
        break;
    }
    return result;
}

} // namespace svc
} // namespace hcm
