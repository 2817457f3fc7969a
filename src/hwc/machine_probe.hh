/**
 * @file
 * Calibrated microkernels that measure the *host's* roofline ceilings
 * — the same two numbers the paper's Table 2 publishes per device,
 * measured instead of quoted. The streaming kernel runs a
 * cache-defeating triad (a[i] = b[i] + s * c[i]) over arrays far
 * larger than any LLC and reports sustained memory bandwidth; the
 * peak-ops kernel runs independent multiply-add chains (enough
 * accumulators to fill the FP pipes) and reports attainable ops/s for
 * this build's codegen. Both time with the steady clock and take the
 * best of several calibration passes, so the ceilings are what a
 * perfectly-behaved hot loop could reach, not an average over noise.
 *
 * When hardware counters are available, each peak-ops pass is also
 * bracketed by a PerfCounterGroup and its retired-instruction rate is
 * reported: self-roofline placements use instructions as the ops
 * proxy, and a ceiling in the same unit keeps the chart coherent.
 */

#ifndef HCM_HWC_MACHINE_PROBE_HH
#define HCM_HWC_MACHINE_PROBE_HH

#include <cstddef>
#include <cstdint>

namespace hcm {
namespace hwc {

/** Probe knobs (tests shrink them; defaults suit CI). */
struct ProbeOptions
{
    /** Per-array element count for the triad (3 arrays of doubles).
     *  Default works out to 3 x 32 MiB — far beyond any LLC. */
    std::size_t streamElems = 4u << 20;
    /** Minimum wall time per calibration pass, seconds. */
    double minSeconds = 0.15;
    /** Calibration passes; the best one is reported. */
    int passes = 3;
};

/** Measured host ceilings. */
struct MachineCeilings
{
    /** Sustained triad bandwidth, bytes/s. */
    double streamBytesPerSec = 0.0;
    /** Attainable multiply-add throughput, FP ops/s. */
    double peakOpsPerSec = 0.0;
    /**
     * Retired instructions/s of the peak-ops kernel (0 when counters
     * are unavailable) — the compute ceiling in the unit the
     * self-roofline places points in.
     */
    double peakInsPerSec = 0.0;
    /** Bytes the winning stream pass moved / its wall seconds. */
    std::uint64_t streamBytes = 0;
    double streamSeconds = 0.0;
    /** Ops the winning peak pass retired / its wall seconds. */
    std::uint64_t peakOps = 0;
    double peakSeconds = 0.0;
};

/** Run both microkernels and report the ceilings. */
MachineCeilings measureMachineCeilings(const ProbeOptions &opts = {});

/** Compiler barrier: keep @p v live without volatile traffic. */
inline void
keepAlive(void *v)
{
#if defined(__GNUC__) || defined(__clang__)
    asm volatile("" : : "g"(v) : "memory");
#else
    static volatile void *sink;
    sink = v;
#endif
}

} // namespace hwc
} // namespace hcm

#endif // HCM_HWC_MACHINE_PROBE_HH
