/**
 * @file
 * The traced run's per-layer replay: each layer's public entry point is
 * timed on its own, on the workload's seeded inputs, with spans taken in
 * the benchmark around the calls (the program is not instrumented
 * further). The medians feed the per-layer metrics and the ledger that
 * checks them against the end-to-end latency.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common.hh"
#include "sweep_run.hh"

namespace perfbench {

struct LayerInputs
{
    /** The workload's request payloads, in stream order. */
    std::vector<std::string> payloads;
    /** Sent first to the replays that keep state (cache, engines). */
    std::vector<std::string> warmup;
    /** Gap between two requests on one open-loop connection. */
    double spacingUs = 1000.0;
};

/**
 * Medians along the blocking path of a served request that the ledger
 * sums; each is over the whole request mix, in microseconds.
 */
struct Ledger
{
    double rttEmptyUs = 0.0;
    double encodeUs = 0.0;
    double decodeUs = 0.0;
    double parseUs = 0.0;
    double keyUs = 0.0;
    double lookupUs = 0.0;
    double handoffUs = 0.0;
    double evalUs = 0.0;
    double renderUs = 0.0;

    /** A cache hit: frames, two parses and keys, lookup, render. */
    double hitPathUs() const;
    /** A miss: frames, two parses and keys, handoff, eval, render. */
    double missPathUs() const;
};

/** Time every svc/core/net layer on @p in.payloads into @p report. */
Ledger replayServeLayers(const LayerInputs &in, Report &report);

/** The sweep layers' medians over @p timings (sizes from the first). */
void reportSweepLayers(const std::vector<SweepTiming> &timings,
                       Report &report);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
