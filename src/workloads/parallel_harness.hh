/**
 * @file
 * Multi-threaded measurement harness: run a chunked kernel across a
 * thread pool, measure its critical path (the busiest thread's CPU
 * time) per thread count, and fit the Amdahl parallel fraction f from
 * the observed scaling — the empirical counterpart of the model's
 * central parameter. (The paper's Core i7 numbers come from
 * multithreaded MKL/PARSEC runs; this is the same methodology on the
 * host.)
 */

#ifndef HCM_WORKLOADS_PARALLEL_HARNESS_HH
#define HCM_WORKLOADS_PARALLEL_HARNESS_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "workloads/harness.hh"

namespace hcm {
namespace wl {

/**
 * A chunked kernel: invoked as fn(chunk_index, chunk_count); chunks
 * must be independent (the harness runs them on different threads).
 */
using ChunkedKernel = std::function<void(std::size_t, std::size_t)>;

/** One point of a thread-scaling curve. */
struct ScalingPoint
{
    std::size_t threads = 1;
    double seconds = 0.0;  ///< wall time of the measured repetitions
    std::uint64_t reps = 0;///< whole-kernel repetitions timed
    double speedup = 0.0;  ///< critical path vs the 1-thread point
    /**
     * Sum over the timed repetitions of the busiest thread's CPU time:
     * the critical path, free of time spent waiting for a core.
     */
    double criticalSeconds = 0.0;
};

/** A measured scaling curve plus the fitted Amdahl fraction. */
struct ScalingCurve
{
    std::vector<ScalingPoint> points;
    /**
     * Least-squares fit of f in speedup(t) = 1/((1-f) + f/t) over the
     * measured points (in 1/speedup space, where the model is linear
     * in f).
     */
    double fittedF = 0.0;
};

/**
 * Run @p kernel chunked @p chunks ways under 1..@p max_threads threads
 * (each point sampled for at least @p min_seconds) and fit f.
 *
 * @param chunks number of independent chunks per kernel invocation;
 *        should comfortably exceed max_threads.
 */
ScalingCurve measureScaling(const ChunkedKernel &kernel,
                            std::size_t chunks, std::size_t max_threads,
                            double min_seconds = 0.05);

/**
 * Fit the Amdahl fraction from (threads, speedup) pairs:
 * 1/S = (1-f) + f/t is linear in f, so the least-squares solution is
 * closed-form. Points with t = 1 carry no information and are skipped.
 */
double fitAmdahlFraction(const std::vector<ScalingPoint> &points);

} // namespace wl
} // namespace hcm

#endif // HCM_WORKLOADS_PARALLEL_HARNESS_HH
