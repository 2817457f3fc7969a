/**
 * @file
 * Parallelism profiles — the paper's first future-work item ("models in
 * the future should attempt to incorporate varying degrees of
 * parallelism in an application, in order to capture how 'suitable'
 * certain types of U-cores might be under a given parallelism
 * profile").
 *
 * A profile splits baseline execution into segments, each with a
 * parallelism width: the number of concurrent BCE-granularity tasks the
 * software exposes there. Width-1 segments stay on the sequential core
 * (as in the paper — offloading serial code to U-cores is Section 6.3's
 * separate "conservation cores" discussion). Wider segments run on the
 * organization's parallel fabric, as the two-point model's parallel
 * phase does: min(width, tiles) tiles of the form's tile performance
 * (n - r tiles of mu on an Offload chip, whose core is powered off
 * meanwhile; n/r cores of sqrt(r) on a symmetric CMP; n BCEs on a
 * dynamic CMP).
 *
 * The classic two-point model is the special case of one width-1 segment
 * plus one infinite-width segment: on ParallelismProfile::uniform(f),
 * profiledSpeedup() is the Section 3.3 formula and optimizeProfiled()
 * returns optimize()'s design for every organization (tested).
 */

#ifndef HCM_CORE_PROFILE_HH
#define HCM_CORE_PROFILE_HH

#include <vector>

#include "core/optimizer.hh"

namespace hcm {
namespace core {

/** One segment of a parallelism profile. */
struct ProfileSegment
{
    double fraction = 0.0; ///< share of baseline (1-BCE) execution time
    double width = 1.0;    ///< exploitable concurrent BCE-tasks (>= 1;
                           ///< infinity() = embarrassingly parallel)
};

/** A complete application profile (fractions sum to 1). */
class ParallelismProfile
{
  public:
    /** Build from explicit segments; validates and normalizes nothing —
     *  fractions must sum to 1 within 1e-9. */
    explicit ParallelismProfile(std::vector<ProfileSegment> segments);

    /** The paper's two-point model: (1-f) serial + f infinitely wide. */
    static ParallelismProfile uniform(double f);

    /**
     * A geometric work profile: fraction `f` of time is parallel, split
     * across `levels` segments whose widths grow by `ratio` from
     * `base_width` — a stand-in for applications whose parallelism
     * varies phase to phase.
     */
    static ParallelismProfile geometric(double f, int levels,
                                        double base_width, double ratio);

    const std::vector<ProfileSegment> &segments() const
    { return _segments; }

    /** Fraction of time with width > 1. */
    double parallelFraction() const;

  private:
    std::vector<ProfileSegment> _segments;
};

/**
 * Speedup of organization @p org on profile @p profile at design (r, n),
 * each segment by its width's rule (see file comment).
 */
double profiledSpeedup(const Organization &org,
                       const ParallelismProfile &profile, double r,
                       double n);

/**
 * Best design for @p org under @p budget for a profiled application:
 * the same Table 1 bounds, r grid and n - r headroom rule as optimize()
 * (without its continuousR refinement), with profiledSpeedup() as the
 * objective.
 */
DesignPoint optimizeProfiled(const Organization &org,
                             const ParallelismProfile &profile,
                             const Budget &budget,
                             OptimizerOptions opts = {});

} // namespace core
} // namespace hcm

#endif // HCM_CORE_PROFILE_HH
