/** @file Google-benchmark microbenchmarks of the modeling pipeline
 *  itself: calibration, single design-point optimization, and full
 *  figure regeneration — the costs a user of the library pays. */

#include <benchmark/benchmark.h>

#include "bench_counters.hh"
#include "core/projection.hh"
#include "report/paper.hh"

namespace {

using namespace hcm;

void
BM_DeriveTable5(benchmark::State &state)
{
    const auto &calib = core::BceCalibration::standard();
    for (auto _ : state) {
        auto table = calib.deriveTable5();
        benchmark::DoNotOptimize(table.data());
    }
}
BENCHMARK(BM_DeriveTable5);

void
BM_OptimizeDesignPoint(benchmark::State &state)
{
    auto w = wl::Workload::fft(1024);
    auto org = *core::heterogeneous(dev::DeviceId::Asic, w);
    core::Budget b = core::makeBudget(itrs::nodeParams(22.0), w);
    bench::GbenchCounters counters(state);
    for (auto _ : state) {
        core::DesignPoint dp = core::optimize(org, 0.99, b);
        benchmark::DoNotOptimize(dp);
    }
}
BENCHMARK(BM_OptimizeDesignPoint);

void
BM_OptimizeContinuous(benchmark::State &state)
{
    auto w = wl::Workload::fft(1024);
    auto org = *core::heterogeneous(dev::DeviceId::Asic, w);
    core::Budget b = core::makeBudget(itrs::nodeParams(22.0), w);
    core::OptimizerOptions opts;
    opts.continuousR = true;
    for (auto _ : state) {
        core::DesignPoint dp = core::optimize(org, 0.99, b, opts);
        benchmark::DoNotOptimize(dp);
    }
}
BENCHMARK(BM_OptimizeContinuous);

void
BM_ProjectAllOrganizations(benchmark::State &state)
{
    auto w = wl::Workload::mmm();
    bench::GbenchCounters counters(state);
    for (auto _ : state) {
        auto all = core::projectAll(w, 0.99);
        benchmark::DoNotOptimize(all.data());
    }
}
BENCHMARK(BM_ProjectAllOrganizations);

void
BM_Figure6EndToEnd(benchmark::State &state)
{
    for (auto _ : state) {
        plot::Figure fig = report::fig6FftProjection();
        benchmark::DoNotOptimize(&fig);
    }
}
BENCHMARK(BM_Figure6EndToEnd);

} // namespace

BENCHMARK_MAIN();
