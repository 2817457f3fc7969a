/**
 * @file
 * Hardware-counter plumbing for the google-benchmark suites. A
 * GbenchCounters opens one counter group around a benchmark's whole
 * timing loop and publishes the delta as gbench user counters —
 * per-iteration instructions and cycles plus the ratio columns — which
 * the JSON output flattens into the benchmark entry and `hcm bench`
 * copies into BENCH_RESULTS.json. On hosts without perf events the
 * helper publishes nothing: rows simply lack counter columns, and the
 * results metadata explains why.
 *
 * Only meaningful for benchmarks whose work runs on the calling
 * thread — counter groups are per-thread, so a thread-pool benchmark
 * would measure only the coordination cost.
 */

#ifndef HCM_BENCH_BENCH_COUNTERS_HH
#define HCM_BENCH_BENCH_COUNTERS_HH

#include <benchmark/benchmark.h>

#include "hwc/perf_counters.hh"

namespace hcm {
namespace bench {

/** RAII: construct before the timing loop, destruct after it. */
class GbenchCounters
{
  public:
    explicit GbenchCounters(benchmark::State &state) : _state(state)
    {
        _group.open();
        _start = _group.read();
    }

    GbenchCounters(const GbenchCounters &) = delete;
    GbenchCounters &operator=(const GbenchCounters &) = delete;

    ~GbenchCounters()
    {
        const hwc::CounterSample d = _group.read().deltaSince(_start);
        if (!d.available || _state.iterations() == 0)
            return;
        double iters = static_cast<double>(_state.iterations());
        _state.counters["instructions"] =
            static_cast<double>(d.instructions) / iters;
        _state.counters["cycles"] =
            static_cast<double>(d.cycles) / iters;
        _state.counters["ipc"] = d.ipc();
        if (d.hasLlc)
            _state.counters["llcMissRate"] = d.llcMissRate();
    }

  private:
    benchmark::State &_state;
    hwc::PerfCounterGroup _group;
    hwc::CounterSample _start;
};

} // namespace bench
} // namespace hcm

#endif // HCM_BENCH_BENCH_COUNTERS_HH
