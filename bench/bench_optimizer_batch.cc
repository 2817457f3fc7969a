/** @file Microbenchmarks of the SoA batch kernel against the scalar
 *  oracle it replaced: table construction (assign), the amortized
 *  per-fraction best() the sweep engine pays, the full-grid
 *  enumeration, and the oracle itself for the before/after ratio. */

#include <vector>

#include <benchmark/benchmark.h>

#include "bench_counters.hh"
#include "core/optimizer_batch.hh"
#include "core/projection.hh"
#include "oracle/scalar_oracle.hh"

namespace {

using namespace hcm;

/** The heterogeneous ASIC organization at the 22nm mmm budget — the
 *  same triple the optimizer bench uses, so ratios line up. */
struct Fixture
{
    wl::Workload w = wl::Workload::fft(1024);
    core::Organization org = *core::heterogeneous(dev::DeviceId::Asic, w);
    core::Budget budget = core::makeBudget(itrs::nodeParams(22.0), w);
    core::OptimizerOptions opts;
};

void
BM_BatchAssign(benchmark::State &state)
{
    Fixture fx;
    core::BatchEvaluator evaluator;
    bench::GbenchCounters counters(state);
    for (auto _ : state) {
        evaluator.assign(fx.org, fx.budget, fx.opts);
        benchmark::DoNotOptimize(evaluator.gridSize());
    }
}
BENCHMARK(BM_BatchAssign);

void
BM_BatchBestReused(benchmark::State &state)
{
    // The sweep engine's steady state: one shared table, a whole
    // fraction grid of best() calls against it.
    Fixture fx;
    core::BatchEvaluator evaluator(fx.org, fx.budget, fx.opts);
    const double fractions[] = {0.5,   0.9,   0.95,  0.975, 0.99,
                                0.995, 0.999, 0.75,  0.25,  0.999};
    bench::GbenchCounters counters(state);
    for (auto _ : state) {
        for (double f : fractions) {
            core::DesignPoint dp = evaluator.best(f);
            benchmark::DoNotOptimize(dp);
        }
    }
    state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_BatchBestReused);

void
BM_ScalarOracleOptimize(benchmark::State &state)
{
    // The reference the batch path is measured against (and verified
    // bit-identical to); optimize() itself is benchmarked in
    // bench_optimizer's BM_OptimizeDesignPoint.
    Fixture fx;
    bench::GbenchCounters counters(state);
    for (auto _ : state) {
        core::DesignPoint dp =
            core::optimizeScalar(fx.org, 0.99, fx.budget, fx.opts);
        benchmark::DoNotOptimize(dp);
    }
}
BENCHMARK(BM_ScalarOracleOptimize);

void
BM_BatchEvaluateAll(benchmark::State &state)
{
    Fixture fx;
    core::BatchEvaluator evaluator(fx.org, fx.budget, fx.opts);
    std::vector<core::DesignPoint> designs;
    bench::GbenchCounters counters(state);
    for (auto _ : state) {
        designs.clear();
        evaluator.evaluateAll(0.99, designs);
        benchmark::DoNotOptimize(designs.data());
    }
}
BENCHMARK(BM_BatchEvaluateAll);

} // namespace

BENCHMARK_MAIN();
