#include "machine_probe.hh"

#include <chrono>
#include <vector>

#include "hwc/perf_counters.hh"

namespace hcm {
namespace hwc {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * One timed stream pass: repeat the triad until @p min_seconds has
 * elapsed; returns bytes moved and wall time via the out-params. The
 * byte count is the classic triad accounting (two reads + one write
 * per element); write-allocate traffic makes the true number slightly
 * higher, so the reported bandwidth is a conservative ceiling.
 */
void
streamPass(std::vector<double> &a, const std::vector<double> &b,
           const std::vector<double> &c, double min_seconds,
           std::uint64_t *bytes, double *seconds)
{
    const std::size_t n = a.size();
    const double s = 3.0;
    std::uint64_t moved = 0;
    Clock::time_point start = Clock::now();
    do {
        for (std::size_t i = 0; i < n; ++i)
            a[i] = b[i] + s * c[i];
        keepAlive(a.data());
        moved += static_cast<std::uint64_t>(n) * 3u * sizeof(double);
    } while (secondsSince(start) < min_seconds);
    *bytes = moved;
    *seconds = secondsSince(start);
}

/**
 * One timed peak-ops pass: 8 independent multiply-add chains (2 ops
 * per chain per iteration). The accumulators carry loop-to-loop
 * dependences only within their own chain, so an out-of-order core
 * can keep every FP pipe busy; the compiler may vectorize the chains
 * — that is the point: the ceiling is what this build can attain.
 */
void
peakPass(double min_seconds, std::uint64_t *ops, double *seconds)
{
    double acc0 = 1.0, acc1 = 1.1, acc2 = 1.2, acc3 = 1.3;
    double acc4 = 1.4, acc5 = 1.5, acc6 = 1.6, acc7 = 1.7;
    const double m = 0.999999991, d = 1e-9;
    std::uint64_t total = 0;
    constexpr std::uint64_t kChunk = 1u << 20;
    Clock::time_point start = Clock::now();
    do {
        for (std::uint64_t i = 0; i < kChunk; ++i) {
            acc0 = acc0 * m + d;
            acc1 = acc1 * m + d;
            acc2 = acc2 * m + d;
            acc3 = acc3 * m + d;
            acc4 = acc4 * m + d;
            acc5 = acc5 * m + d;
            acc6 = acc6 * m + d;
            acc7 = acc7 * m + d;
        }
        total += kChunk * 8u * 2u; // 8 chains x (mul + add)
        double sink[8] = {acc0, acc1, acc2, acc3,
                          acc4, acc5, acc6, acc7};
        keepAlive(sink);
    } while (secondsSince(start) < min_seconds);
    *ops = total;
    *seconds = secondsSince(start);
}

} // namespace

MachineCeilings
measureMachineCeilings(const ProbeOptions &opts)
{
    MachineCeilings out;
    const std::size_t n = opts.streamElems > 0 ? opts.streamElems : 1;
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);

    for (int pass = 0; pass < opts.passes; ++pass) {
        std::uint64_t bytes = 0;
        double seconds = 0.0;
        streamPass(a, b, c, opts.minSeconds, &bytes, &seconds);
        double rate = seconds > 0.0
                          ? static_cast<double>(bytes) / seconds
                          : 0.0;
        if (rate > out.streamBytesPerSec) {
            out.streamBytesPerSec = rate;
            out.streamBytes = bytes;
            out.streamSeconds = seconds;
        }
    }

    for (int pass = 0; pass < opts.passes; ++pass) {
        std::uint64_t ops = 0;
        double seconds = 0.0;
        PerfCounterGroup group;
        group.open();
        CounterSample start = group.read();
        peakPass(opts.minSeconds, &ops, &seconds);
        CounterSample delta = group.read().deltaSince(start);
        double rate = seconds > 0.0
                          ? static_cast<double>(ops) / seconds
                          : 0.0;
        if (rate > out.peakOpsPerSec) {
            out.peakOpsPerSec = rate;
            out.peakOps = ops;
            out.peakSeconds = seconds;
        }
        if (delta.available && seconds > 0.0) {
            double ins_rate =
                static_cast<double>(delta.instructions) / seconds;
            if (ins_rate > out.peakInsPerSec)
                out.peakInsPerSec = ins_rate;
        }
    }
    return out;
}

} // namespace hwc
} // namespace hcm
