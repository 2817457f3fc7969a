#include "query.hh"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/pareto.hh"
#include "core/scenario.hh"
#include "itrs/scaling.hh"
#include "svc/answer_codec.hh"
#include "util/logging.hh"

namespace hcm {
namespace svc {
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

namespace {

/** Record value meaning "not in the registry; the full value follows". */
constexpr unsigned kNodeInFull = 7;
constexpr unsigned char kScenarioInFull = 0xFF;

/** Index of the first entry of @p registry that @p field accepts, or
 *  @p none when there is none. */
template <typename Registry, typename Field>
unsigned
indexIn(const Registry &registry, Field field, unsigned none)
{
    for (std::size_t i = 0; i < registry.size(); ++i)
        if (field(registry[i]))
            return static_cast<unsigned>(i);
    return none;
}

/** Position of @p node in itrs::nodeTable(). */
std::uint8_t
nodeIndex(const itrs::NodeParams &node)
{
    return static_cast<std::uint8_t>(indexIn(
        itrs::nodeTable(),
        [&](const itrs::NodeParams &n) { return n.nodeNm == node.nodeNm; },
        0));
}

/** One design as a result row; the numbers only when it is feasible. */
ResultRow
designRow(int paper_index, std::uint8_t node,
          const core::DesignPoint &design, double energy_normalized)
{
    hcm_assert(paper_index >= 0, "result row for an organization outside "
                                 "the paper's");
    ResultRow row;
    row.org = static_cast<std::uint8_t>(paper_index);
    row.node = node;
    row.feasible = design.feasible;
    if (design.feasible) {
        row.r = design.r;
        row.n = design.n;
        row.speedup = design.speedup;
        row.limiter = design.limiter;
        row.energyNormalized = energy_normalized;
    }
    return row;
}

/**
 * The 8 bytes of @p value. Every NaN of one sign prints as the same
 * text, so NaNs are stored as the one quiet NaN of their sign.
 */
void
appendBits(std::string &key, double value)
{
    if (std::isnan(value))
        value = std::copysign(std::numeric_limits<double>::quiet_NaN(),
                              value);
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    key.append(bytes, sizeof bytes);
}

} // namespace

std::string
Query::canonicalKey() const
{
    // Byte 0: type (2 bits), device filter (3 bits: 0 = all, else the
    // DeviceId + 1), node index (3 bits). Projection spans every node,
    // so its node is left out and differently-spelled requests share
    // one cache entry.
    unsigned node_index = 0;
    if (type != QueryType::Projection)
        node_index = indexIn(
            itrs::nodeTable(),
            [&](const itrs::NodeParams &n) { return n.nodeNm == node; },
            kNodeInFull);
    unsigned device_code = device ? static_cast<unsigned>(*device) + 1 : 0;
    unsigned char scenario_index = static_cast<unsigned char>(indexIn(
        core::allScenarios(),
        [&](const core::Scenario &s) { return s.name == scenario; },
        kScenarioInFull));
    // The workload as its name prints it: the kind, and for FFT the
    // power of two (MMM's block size is not part of its name).
    unsigned workload_code = static_cast<unsigned>(workload.kind()) << 6;
    if (workload.kind() == wl::Kind::FFT)
        workload_code |= static_cast<unsigned>(std::countr_zero(
            static_cast<std::uint64_t>(workload.size())));

    char head[3] = {
        static_cast<char>(static_cast<unsigned>(type) << 6 |
                          device_code << 3 | node_index),
        static_cast<char>(scenario_index),
        static_cast<char>(workload_code),
    };
    std::string key(head, sizeof head);
    appendBits(key, f);
    // Values outside the registries follow in full; such queries fail
    // evaluation, but their keys stay exact.
    if (node_index == kNodeInFull)
        appendBits(key, node);
    if (scenario_index == kScenarioInFull)
        key += scenario;
    return key;
}

std::string
QueryResult::toJson() const
{
    thread_local std::string packed;
    packed.clear();
    packAnswer(*this, packed);
    std::string text;
    appendExpanded(packed, text);
    return text;
}

std::size_t
Answer::size() const
{
    return expandedSize(packed());
}

void
Answer::appendTo(std::string &out) const
{
    appendExpanded(packed(), out);
}

void
Answer::writeTo(JsonWriter &json) const
{
    json.rawInPlace(size(), kAnswerExpandSlack,
                    [&](char *dst) { expandAnswer(packed(), dst); });
}

Answer::Answer(InBlock, QueryErrorKind kind, std::string_view packed)
    : errorKind(kind), _packedSize(static_cast<std::uint32_t>(packed.size()))
{
    std::memcpy(reinterpret_cast<char *>(this + 1), packed.data(),
                packed.size());
}

namespace {

/**
 * Allocates each object with @p tail spare bytes behind it. Given to
 * allocate_shared, it makes the control block, the object and the
 * tail one heap block. The object lies inside the control block, so
 * the tail's bytes from the object's end onward fit in the
 * allocation.
 */
template <typename T>
struct TailAllocator
{
    using value_type = T;

    std::size_t tail;

    explicit TailAllocator(std::size_t bytes) : tail(bytes) {}

    template <typename U>
    TailAllocator(const TailAllocator<U> &other) : tail(other.tail)
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T) + tail));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        ::operator delete(p, n * sizeof(T) + tail);
    }

    friend bool
    operator==(const TailAllocator &a, const TailAllocator &b)
    {
        return a.tail == b.tail;
    }
};

} // namespace

std::shared_ptr<const Answer>
renderAnswer(const QueryResult &result)
{
    // Packed into a reused buffer, then copied once behind the header
    // of the block that keeps it.
    thread_local std::string packed;
    packed.clear();
    packAnswer(result, packed);
    hcm_assert(packed.size() <= std::numeric_limits<std::uint32_t>::max(),
               "packed answer of ", packed.size(), " bytes");
    return std::allocate_shared<Answer>(TailAllocator<Answer>(packed.size()),
                                        Answer::InBlock{}, result.errorKind,
                                        packed);
}

QueryResult
evaluateQuery(const Query &q)
{
    QueryResult result;
    result.query = q;
    // Outside the registries a query fails evaluation: the request
    // parser refuses such names, but other callers may build them.
    const core::Scenario *found = core::findScenario(q.scenario);
    if (!found)
        throw std::invalid_argument("unknown scenario '" + q.scenario + "'");
    const core::Scenario &scenario = *found;
    if (q.type == QueryType::Projection) {
        for (const core::ProjectionSeries &series :
             core::projectAll(q.workload, q.f, scenario)) {
            if (!series.org.matchesDevice(q.device))
                continue;
            for (const core::NodePoint &pt : series.points)
                result.rows.push_back(
                    designRow(series.org.paperIndex, nodeIndex(pt.node),
                              pt.design, pt.energyNormalized()));
        }
        return result;
    }
    // Optimize, Energy and Pareto: designs at one node.
    const itrs::NodeParams *at = itrs::findNode(q.node);
    if (!at)
        throw std::invalid_argument("unknown node " + std::to_string(q.node));
    const itrs::NodeParams &node = *at;
    core::OptimizerOptions opts;
    if (q.type == QueryType::Energy)
        opts.objective = core::Objective::MinEnergy;
    std::vector<core::ParetoPoint> points =
        q.type == QueryType::Pareto
            ? core::paretoFrontier(core::enumerateDesigns(
                  q.workload, q.f, node, scenario))
            : core::bestDesigns(q.workload, q.f, node, scenario, q.device,
                                opts);
    std::uint8_t node_index = nodeIndex(node);
    for (const core::ParetoPoint &p : points)
        result.rows.push_back(designRow(p.paperIndex, node_index, p.design,
                                        p.energyNormalized));
    return result;
}

} // namespace svc
} // namespace hcm
