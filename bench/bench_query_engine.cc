/** @file Google-benchmark microbenchmarks of the concurrent query
 *  engine: batch throughput versus worker-thread count and cache
 *  state, the cost of a hit through to its answer bytes, a single
 *  miss through evaluate(), the one-time JSON render per query type,
 *  formatting one answer-like double at 12 and 17 digits, packing and
 *  expanding the cached answer bytes, and building a key and looking
 *  it up. The acceptance ratio for the subsystem is the
 *  warm-cache 8-thread batch against the cold-cache single-thread
 *  batch. */

#include <cmath>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "svc/answer_codec.hh"
#include "svc/cache.hh"
#include "svc/engine.hh"
#include "svc/request.hh"
#include "util/format.hh"

namespace {

using namespace hcm;

/** A mixed batch covering every query type, ~30 distinct queries. */
std::vector<svc::Query>
benchBatch()
{
    std::vector<svc::Query> queries;
    const wl::Workload workloads[] = {
        wl::Workload::mmm(),
        wl::Workload::blackScholes(),
        wl::Workload::fft(1024),
    };
    for (const wl::Workload &w : workloads) {
        for (double f : {0.5, 0.9, 0.95, 0.99}) {
            svc::Query opt;
            opt.type = svc::QueryType::Optimize;
            opt.workload = w;
            opt.f = f;
            queries.push_back(opt);

            svc::Query energy = opt;
            energy.type = svc::QueryType::Energy;
            queries.push_back(energy);
        }
        svc::Query projection;
        projection.type = svc::QueryType::Projection;
        projection.workload = w;
        queries.push_back(projection);

        svc::Query pareto;
        pareto.type = svc::QueryType::Pareto;
        pareto.workload = w;
        queries.push_back(pareto);
    }
    return queries;
}

/**
 * A "name=value" label. Every row has a label column, so unlike a user
 * counter a label keeps the CSV reporter's header, taken from the first
 * row, valid for the whole suite and for any filtered part of it.
 */
std::string
labelOf(const char *name, double value)
{
    std::ostringstream out;
    out << name << "=" << value;
    return out.str();
}

/** Cache disabled: every iteration pays the full evaluation cost. */
void
BM_BatchColdCache(benchmark::State &state)
{
    svc::EngineOptions opts;
    opts.threads = static_cast<std::size_t>(state.range(0));
    opts.cacheCapacity = 0;
    svc::QueryEngine engine(opts);
    std::vector<svc::Query> queries = benchBatch();
    for (auto _ : state) {
        auto results = engine.evaluateBatch(queries);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * queries.size()));
    state.SetLabel(labelOf("hitRate", 0.0));
}
BENCHMARK(BM_BatchColdCache)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/** Cache primed before timing: batches are served by memoization. */
void
BM_BatchWarmCache(benchmark::State &state)
{
    svc::EngineOptions opts;
    opts.threads = static_cast<std::size_t>(state.range(0));
    svc::QueryEngine engine(opts);
    std::vector<svc::Query> queries = benchBatch();
    engine.evaluateBatch(queries); // prime
    for (auto _ : state) {
        auto results = engine.evaluateBatch(queries);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * queries.size()));
    state.SetLabel(labelOf("hitRate", engine.cacheStats().hitRate()));
}
BENCHMARK(BM_BatchWarmCache)->Arg(1)->Arg(8);

/** Latency of one memoized lookup through the full engine path. */
void
BM_SingleQueryWarm(benchmark::State &state)
{
    svc::QueryEngine engine;
    svc::Query q;
    engine.evaluate(q); // prime
    for (auto _ : state) {
        auto result = engine.evaluate(q);
        benchmark::DoNotOptimize(result.get());
    }
}
BENCHMARK(BM_SingleQueryWarm);

/**
 * A cache hit through to its answer bytes, as the router serves it,
 * over the mixed batch: lookup plus handing back the bytes rendered
 * when the key was first evaluated.
 */
void
BM_EngineWarmHit(benchmark::State &state)
{
    svc::EngineOptions opts;
    opts.threads = 1;
    svc::QueryEngine engine(opts);
    std::vector<svc::Query> queries = benchBatch();
    engine.evaluateBatch(queries); // prime
    std::size_t i = 0;
    for (auto _ : state) {
        std::string body;
        engine.evaluate(queries[i])->appendTo(body);
        benchmark::DoNotOptimize(body.data());
        benchmark::ClobberMemory();
        i = (i + 1) % queries.size();
    }
    state.SetLabel(labelOf("hitRate", engine.cacheStats().hitRate()));
}
BENCHMARK(BM_EngineWarmHit);

/**
 * A miss through evaluate() on a 1-worker engine, as a shard serves a
 * single query: distinct keys (f steps through [0.5, 1)), so every
 * iteration evaluates, renders and inserts. The miss runs on the
 * calling thread when the worker slot is free; this is the handoff
 * cost a served single query pays on top of its model work.
 */
void
BM_EngineMiss(benchmark::State &state)
{
    svc::EngineOptions opts;
    opts.threads = 1;
    svc::QueryEngine engine(opts);
    svc::Query q;
    q.workload = wl::Workload::mmm();
    std::uint64_t i = 0;
    for (auto _ : state) {
        q.f = 0.5 + 0.5 * static_cast<double>(i++ % 1000003) / 1000003.0;
        auto result = engine.evaluate(q);
        benchmark::DoNotOptimize(result.get());
    }
}
BENCHMARK(BM_EngineMiss);

/** Rendering one evaluated answer of @p type to JSON from its rows. */
void
BM_RenderQueryResult(benchmark::State &state, svc::QueryType type)
{
    svc::Query q;
    q.type = type;
    q.workload = wl::Workload::mmm();
    svc::QueryResult result = svc::evaluateQuery(q);
    for (auto _ : state) {
        std::string body = result.toJson();
        benchmark::DoNotOptimize(body.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(
        labelOf("bytes", static_cast<double>(result.toJson().size())));
}
BENCHMARK_CAPTURE(BM_RenderQueryResult, optimize, svc::QueryType::Optimize);
BENCHMARK_CAPTURE(BM_RenderQueryResult, energy, svc::QueryType::Energy);
BENCHMARK_CAPTURE(BM_RenderQueryResult, pareto, svc::QueryType::Pareto);
BENCHMARK_CAPTURE(BM_RenderQueryResult, projection,
                  svc::QueryType::Projection);

/**
 * Formatting one double as "%.{precision}g" (formatGeneral), the unit
 * of every answer's render (12 digits) and every CSV cell (17). The
 * iterations cycle through a fixed seeded set shaped like answer
 * fields: full-precision model outputs from 0.01 to 1000, short
 * fractions such as 0.75, and small integers such as r and node.
 */
void
BM_FormatDouble(benchmark::State &state)
{
    const int precision = static_cast<int>(state.range(0));
    constexpr std::size_t kValues = 1024; // a power of two: i wraps by mask
    std::mt19937_64 rng(20101204);
    std::uniform_real_distribution<double> exponent(-2.0, 3.0);
    std::vector<double> values;
    for (std::size_t i = 0; i < kValues; ++i) {
        switch (i % 3) {
        case 0:
            values.push_back(std::pow(10.0, exponent(rng)));
            break;
        case 1:
            values.push_back(static_cast<double>(rng() % 100) / 100.0);
            break;
        default:
            values.push_back(static_cast<double>(rng() % 64));
        }
    }
    char buf[kGeneralRoom];
    std::size_t i = 0;
    for (auto _ : state) {
        char *end = formatGeneral(buf, values[i], precision);
        benchmark::DoNotOptimize(end);
        benchmark::ClobberMemory();
        i = (i + 1) & (kValues - 1);
    }
}
BENCHMARK(BM_FormatDouble)->Arg(12)->Arg(17);

/** The golden answer mix's queries; empty when the file is missing. */
std::vector<svc::Query>
goldenQueries()
{
    std::ifstream in(std::string(HCM_SVC_DATA_DIR) + "/answers_mix.json",
                     std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    auto batch = svc::parseBatchDocument(text.str(), &error);
    return batch ? batch->queries : std::vector<svc::Query>{};
}

/** The golden answer mix, evaluated: the results the codec benches pack. */
std::vector<svc::QueryResult>
goldenResults()
{
    std::vector<svc::QueryResult> results;
    for (const svc::Query &q : goldenQueries())
        results.push_back(svc::evaluateQuery(q));
    return results;
}

/** The golden answer mix, packed. */
std::vector<std::string>
goldenPacked()
{
    std::vector<std::string> packed;
    for (const svc::QueryResult &result : goldenResults())
        svc::packAnswer(result, packed.emplace_back());
    return packed;
}

/**
 * Packing one answer from its result, as a miss does before the cache
 * keeps it; the iterations cycle through the golden mix, so the time
 * is a mean answer's.
 */
void
BM_AnswerPack(benchmark::State &state)
{
    std::vector<svc::QueryResult> results = goldenResults();
    if (results.empty()) {
        state.SkipWithError("answers_mix.json not found");
        return;
    }
    std::string packed;
    std::size_t i = 0;
    for (auto _ : state) {
        packed.clear();
        svc::packAnswer(results[i], packed);
        benchmark::DoNotOptimize(packed.data());
        benchmark::ClobberMemory();
        i = (i + 1) % results.size();
    }
    double text = 0, kept = 0;
    for (const svc::QueryResult &result : results) {
        packed.clear();
        svc::packAnswer(result, packed);
        text += static_cast<double>(svc::expandedSize(packed));
        kept += static_cast<double>(packed.size());
    }
    state.SetLabel(labelOf("ratio", text / kept));
}
BENCHMARK(BM_AnswerPack);

/** Expanding one packed answer into a reused buffer, as a hit does. */
void
BM_AnswerUnpack(benchmark::State &state)
{
    std::vector<std::string> packed = goldenPacked();
    if (packed.empty()) {
        state.SkipWithError("answers_mix.json not found");
        return;
    }
    std::string body;
    std::size_t i = 0;
    for (auto _ : state) {
        body.clear();
        svc::appendExpanded(packed[i], body);
        benchmark::DoNotOptimize(body.data());
        benchmark::ClobberMemory();
        i = (i + 1) % packed.size();
    }
}
BENCHMARK(BM_AnswerUnpack);

/** A plain copy of one answer's bytes: the floor the codec adds to. */
void
BM_AnswerCopy(benchmark::State &state)
{
    std::vector<std::string> answers;
    for (const svc::QueryResult &result : goldenResults())
        answers.push_back(result.toJson());
    if (answers.empty()) {
        state.SkipWithError("answers_mix.json not found");
        return;
    }
    std::string body;
    std::size_t i = 0;
    for (auto _ : state) {
        body.assign(answers[i]);
        benchmark::DoNotOptimize(body.data());
        benchmark::ClobberMemory();
        i = (i + 1) % answers.size();
    }
}
BENCHMARK(BM_AnswerCopy);

/** Cost of building the canonical memoization key. */
void
BM_CanonicalKey(benchmark::State &state)
{
    svc::Query q;
    q.device = dev::DeviceId::Asic;
    for (auto _ : state) {
        std::string key = q.canonicalKey();
        benchmark::DoNotOptimize(key.data());
    }
}
BENCHMARK(BM_CanonicalKey);

/**
 * A hit's key work: build the key, then look it up in a cache holding
 * every answer of the golden mix; the iterations cycle through the mix.
 */
void
BM_QueryKey(benchmark::State &state)
{
    std::vector<svc::Query> queries = goldenQueries();
    if (queries.empty()) {
        state.SkipWithError("answers_mix.json not found");
        return;
    }
    svc::QueryCache cache(4096);
    for (const svc::Query &q : queries)
        cache.put(q.canonicalKey(),
                  svc::renderAnswer(svc::evaluateQuery(q)));
    std::size_t i = 0;
    for (auto _ : state) {
        std::string key = queries[i].canonicalKey();
        auto answer = cache.get(key);
        benchmark::DoNotOptimize(answer.get());
        i = (i + 1) % queries.size();
    }
}
BENCHMARK(BM_QueryKey);

} // namespace

BENCHMARK_MAIN();
