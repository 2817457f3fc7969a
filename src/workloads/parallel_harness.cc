#include "parallel_harness.hh"

#include <algorithm>
#include <ctime>
#include <numeric>
#include <thread>

#include "util/logging.hh"

namespace hcm {
namespace wl {

namespace {

/** CPU time the calling thread has used, in seconds. */
double
threadCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/**
 * One whole-kernel invocation, chunks statically partitioned. Returns
 * its critical path: the CPU time of the busiest thread. CPU time
 * leaves out the time a thread waits for a core, so other processes
 * on the machine do not read as lost scaling.
 */
double
runOnce(const ChunkedKernel &kernel, std::size_t chunks,
        std::size_t threads)
{
    auto run_range = [&kernel, chunks](std::size_t begin, std::size_t end) {
        double start = threadCpuSeconds();
        for (std::size_t c = begin; c < end; ++c)
            kernel(c, chunks);
        return threadCpuSeconds() - start;
    };
    if (threads <= 1)
        return run_range(0, chunks);
    std::vector<double> busy(threads, 0.0);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        std::size_t begin = chunks * t / threads;
        std::size_t end = chunks * (t + 1) / threads;
        pool.emplace_back([&run_range, &busy, t, begin, end] {
            busy[t] = run_range(begin, end);
        });
    }
    for (std::thread &th : pool)
        th.join();
    return *std::max_element(busy.begin(), busy.end());
}

} // namespace

double
fitAmdahlFraction(const std::vector<ScalingPoint> &points)
{
    // 1/S = 1 + f * (1/t - 1): least squares for f through the origin
    // of (x, y - 1) with x = 1/t - 1, y = 1/S.
    double sxx = 0.0, sxy = 0.0;
    for (const ScalingPoint &p : points) {
        if (p.threads <= 1 || p.speedup <= 0.0)
            continue;
        double x = 1.0 / static_cast<double>(p.threads) - 1.0;
        double y = 1.0 / p.speedup - 1.0;
        sxx += x * x;
        sxy += x * y;
    }
    if (sxx <= 0.0)
        return 0.0;
    double f = sxy / sxx;
    // Clamp to the meaningful range (measurement noise can stray).
    return std::min(1.0, std::max(0.0, f));
}

ScalingCurve
measureScaling(const ChunkedKernel &kernel, std::size_t chunks,
               std::size_t max_threads, double min_seconds)
{
    hcm_assert(chunks >= 1 && max_threads >= 1, "bad scaling request");

    ScalingCurve curve;
    double base_time = 0.0;
    for (std::size_t t = 1; t <= max_threads; ++t) {
        // Every invocation's critical path; the timed batch is the last
        // res.calls of them (warm-up and shorter batches come first).
        std::vector<double> paths;
        MeasureResult res = measureKernel(
            "scaling-" + std::to_string(t), 1.0,
            [&] { paths.push_back(runOnce(kernel, chunks, t)); },
            min_seconds);
        ScalingPoint pt;
        pt.threads = t;
        pt.seconds = res.seconds;
        pt.reps = res.calls;
        auto timed = paths.end() - static_cast<std::ptrdiff_t>(res.calls);
        pt.criticalSeconds = std::accumulate(timed, paths.end(), 0.0);
        double per_rep =
            pt.criticalSeconds / static_cast<double>(res.calls);
        if (t == 1)
            base_time = per_rep;
        pt.speedup = base_time / per_rep;
        curve.points.push_back(pt);
    }
    curve.fittedF = fitAmdahlFraction(curve.points);
    return curve;
}

} // namespace wl
} // namespace hcm
