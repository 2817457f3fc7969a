#include "profile.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "amdahl/pollack.hh"
#include "core/org_rules.hh"
#include "util/logging.hh"

namespace hcm {
namespace core {

ParallelismProfile::ParallelismProfile(std::vector<ProfileSegment> segments)
    : _segments(std::move(segments))
{
    hcm_assert(!_segments.empty(), "profile needs at least one segment");
    double sum = 0.0;
    for (const ProfileSegment &s : _segments) {
        hcm_assert(s.fraction >= 0.0, "negative segment fraction");
        hcm_assert(s.width >= 1.0, "segment width below 1");
        sum += s.fraction;
    }
    hcm_assert(std::fabs(sum - 1.0) < 1e-9,
               "profile fractions sum to ", sum, ", expected 1");
}

ParallelismProfile
ParallelismProfile::uniform(double f)
{
    hcm_assert(f >= 0.0 && f <= 1.0, "fraction outside [0,1]");
    return ParallelismProfile({
        {1.0 - f, 1.0},
        {f, std::numeric_limits<double>::infinity()},
    });
}

ParallelismProfile
ParallelismProfile::geometric(double f, int levels, double base_width,
                              double ratio)
{
    hcm_assert(f >= 0.0 && f <= 1.0, "fraction outside [0,1]");
    hcm_assert(levels >= 1, "need at least one level");
    hcm_assert(base_width >= 1.0 && ratio >= 1.0, "bad width ladder");
    std::vector<ProfileSegment> segments = {{1.0 - f, 1.0}};
    double width = base_width;
    for (int i = 0; i < levels; ++i) {
        segments.push_back({f / levels, width});
        width *= ratio;
    }
    return ParallelismProfile(std::move(segments));
}

double
ParallelismProfile::parallelFraction() const
{
    double sum = 0.0;
    for (const ProfileSegment &s : _segments)
        if (s.width > 1.0)
            sum += s.fraction;
    return sum;
}

double
profiledSpeedup(const Organization &org, const ParallelismProfile &profile,
                double r, double n)
{
    hcm_assert(r > 0.0 && n >= r, "invalid design");
    OrgRules rules(org);
    if (rules.coreAlone(profile.parallelFraction()))
        return model::perfSeq(r);
    double time = rules.visit([&](const auto &form) {
        // No throughput here reads alpha; any value serves.
        CoreSize core = form.size(r, model::kDefaultAlpha);
        double core_perf = form.serialPerf(core, n);
        double sum = 0.0;
        for (const ProfileSegment &seg : profile.segments()) {
            if (seg.fraction <= 0.0)
                continue;
            // A single sequential task stays on the sequential core —
            // offloading serial code to a U-core tile is the Section 6.3
            // "conservation cores" idea, deliberately outside this model
            // (as in the paper). Wider segments run on the parallel
            // fabric, one task per tile, as every parallel phase does.
            double perf = seg.width > 1.0
                              ? std::min(seg.width, form.tiles(core, n)) *
                                    form.tilePerf(core)
                              : core_perf;
            sum += seg.fraction / perf;
        }
        return sum;
    });
    hcm_assert(time > 0.0, "profile with no work");
    return 1.0 / time;
}

DesignPoint
optimizeProfiled(const Organization &org,
                 const ParallelismProfile &profile, const Budget &budget,
                 OptimizerOptions opts)
{
    budget.check();
    const double f = profile.parallelFraction();
    OrgRules rules(org);
    if (rules.isDynamic()) {
        // No independent r: optimize()'s bounds, serial rows included,
        // fix the design; only the objective reads the profile.
        DesignPoint dp = optimizeDynamicCmp(org, f, budget, opts);
        if (dp.feasible)
            dp.speedup = profiledSpeedup(org, profile, dp.r, dp.n);
        return dp;
    }

    DesignPoint best;
    best.f = f;
    double cap = std::min(opts.rMax, serialRCap(budget, opts.alpha));
    for (double r : rCandidateGrid(cap)) {
        ParallelBound pb = parallelBound(org, r, budget, opts.alpha);
        if (pb.n < r)
            continue;
        if (rules.needsHeadroom(f) && !OrgRules::hasHeadroom(r, pb.n))
            continue;
        double speedup = profiledSpeedup(org, profile, r, pb.n);
        if (!best.feasible || speedup > best.speedup) {
            best.feasible = true;
            best.r = r;
            best.n = pb.n;
            best.speedup = speedup;
            best.limiter = pb.limiter;
            best.energy = designEnergy(org, f, r, pb.n, opts.alpha);
        }
    }
    return best;
}

} // namespace core
} // namespace hcm
