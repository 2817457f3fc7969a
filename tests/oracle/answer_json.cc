#include "oracle/answer_json.hh"

#include "core/organization.hh"
#include "devices/measured.hh"
#include "itrs/scaling.hh"
#include "util/logging.hh"

namespace hcm {
namespace {

/** The legend name of the paper organization with @p paper_index. */
std::string
organizationName(int paper_index)
{
    for (const wl::Workload &w : dev::table5Workloads())
        for (const core::Organization &org : core::paperOrganizations(w))
            if (org.paperIndex == paper_index)
                return org.name;
    hcm_panic("no paper organization has index ", paper_index);
}

} // namespace

void
writeAnswerJson(const svc::QueryResult &result, JsonWriter &json)
{
    const svc::Query &query = result.query;
    json.beginObject();
    if (!result.ok()) {
        json.kv("error", result.error);
        json.kv("type", svc::queryErrorKindName(result.errorKind));
        if (result.retryAfterMs > 0)
            json.kv("retryAfterMs", result.retryAfterMs);
        if (query.requestIdEcho && !query.requestId.empty())
            json.kv("requestId", query.requestId);
    }
    json.key("query").beginObject();
    json.kv("type", svc::queryTypeName(query.type));
    json.kv("workload", query.workload.name());
    json.kv("f", query.f);
    json.kv("scenario", query.scenario);
    if (query.type != svc::QueryType::Projection)
        json.kv("node", query.node);
    if (query.device)
        json.kv("device", dev::deviceName(*query.device));
    json.endObject();
    if (!result.ok()) {
        json.endObject();
        return;
    }
    json.key("rows").beginArray();
    for (const svc::ResultRow &row : result.rows) {
        json.beginObject();
        json.kv("organization", organizationName(row.org));
        json.kv("node", itrs::nodeTable().at(row.node).label());
        json.kv("feasible", row.feasible);
        if (row.feasible) {
            json.kv("r", row.r);
            json.kv("n", row.n);
            json.kv("speedup", row.speedup);
            json.kv("limiter", core::limiterName(row.limiter));
            json.kv("energyNormalized", row.energyNormalized);
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

std::string
answerJson(const svc::QueryResult &result)
{
    std::string body;
    JsonWriter out(body);
    writeAnswerJson(result, out);
    return body;
}

} // namespace hcm
