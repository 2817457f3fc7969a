/** @file Google-benchmark microbenchmark of the hardware-counter
 *  pipeline. One deterministic loop runs under bench::GbenchCounters,
 *  which reads a counter group around the whole timing loop, so on
 *  hosts that have counters the instructions column in
 *  BENCH_RESULTS.json shows the counter columns flowing end to end. */

#include <cstdint>

#include <benchmark/benchmark.h>

#include "bench_counters.hh"

namespace {

using namespace hcm;

/** A deterministic integer loop measured under the full pipeline:
 *  with counters available, the instructions column in
 *  BENCH_RESULTS.json scales with the loop trip count. */
void
BM_CountedLoop(benchmark::State &state)
{
    bench::GbenchCounters counters(state);
    for (auto _ : state) {
        std::uint64_t acc = 1;
        for (int i = 0; i < 4096; ++i)
            acc = acc * 2654435761u + 1;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_CountedLoop);

} // namespace

BENCHMARK_MAIN();
