/**
 * @file
 * The sweep-dense workload: runSweep over four workloads x 201
 * fractions x the ten seed scenarios, with the CSV written into a sink
 * that digests the bytes and keeps none, so disk noise stays out of the
 * number.
 */

#ifndef PERFBENCH_SWEEP_RUN_HH
#define PERFBENCH_SWEEP_RUN_HH

#include <cstddef>

#include "common.hh"
#include "sweep/spec.hh"

namespace perfbench {

/**
 * Digest of the CSV that `hcm sweep` wrote for the dense spec with
 * --jobs 1 at the benchmark's seed commit (see README.md for the
 * command that reproduces it).
 */
constexpr Digest kDenseCsvDigest{0xf742b32651b943dfull, 40221785ull};

/** mmm,bs,fft:1024,fft:16384 x 0,0.005,...,1 x the ten seed scenarios. */
hcm::sweep::SpecStrings denseSpecStrings();

/** One sweep from the spec text to the last CSV byte. */
struct SweepTiming
{
    double specMs = 0.0;
    double runMs = 0.0;
    double csvMs = 0.0;
    double wallMs = 0.0;
    Digest digest;
    std::size_t lines = 0; ///< CSV data lines (one per design cell)
};

/** Run @p strings once through parseSweepSpec/runSweep/writeSweepCsv. */
SweepTiming sweepOnce(const hcm::sweep::SpecStrings &strings,
                      std::size_t jobs, DigestBuf &sink);

} // namespace perfbench

#endif // PERFBENCH_SWEEP_RUN_HH
