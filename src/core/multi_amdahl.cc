#include "multi_amdahl.hh"

#include <cmath>

#include "util/logging.hh"

namespace hcm {
namespace core {

namespace {

/** Per-segment accelerator cost c_i = w_i f_i / (muScale_i * mu). */
double
segmentCost(const Segment &seg, double mu)
{
    return seg.weight * seg.f / (seg.muScale * mu);
}

} // namespace

std::vector<double>
segmentShares(const SegmentProfile &profile, double mu)
{
    profile.check();
    std::vector<double> shares;
    if (profile.empty())
        return shares;
    const std::vector<Segment> &segs = profile.segments;
    if (segs.size() == 1) {
        shares.push_back(1.0);
        return shares;
    }
    double sqrt_sum = 0.0;
    for (const Segment &seg : segs)
        sqrt_sum += std::sqrt(segmentCost(seg, mu));
    shares.reserve(segs.size());
    if (sqrt_sum <= 0.0) {
        // No segment has parallel work: the split is immaterial; report
        // an even one so downstream reporting stays well-defined.
        for (std::size_t i = 0; i < segs.size(); ++i)
            shares.push_back(1.0 / static_cast<double>(segs.size()));
        return shares;
    }
    for (const Segment &seg : segs)
        shares.push_back(std::sqrt(segmentCost(seg, mu)) / sqrt_sum);
    return shares;
}

EffectiveOrg
effectiveOrganization(const Organization &org, const SegmentProfile &profile)
{
    EffectiveOrg out;
    out.org = org;
    if (profile.empty())
        return out;
    profile.check();
    out.fScale = profile.parallelWeight();
    if (org.kind != OrgKind::Heterogeneous)
        return out; // one shared fabric: only the fraction transforms

    const std::vector<Segment> &segs = profile.segments;
    if (segs.size() == 1) {
        // s_1 = 1: bypass the share algebra so unit scales reproduce
        // the classic model bit-for-bit (x / (x / mu) may differ from
        // mu by an ulp; muScale * mu with muScale == 1.0 cannot).
        out.org.ucore.mu = segs[0].muScale * org.ucore.mu;
        out.org.ucore.phi = segs[0].phiScale * org.ucore.phi;
        return out;
    }
    if (out.fScale <= 0.0)
        return out; // f_eff == 0 everywhere: the U-core never runs

    double sqrt_sum = 0.0;
    for (const Segment &seg : segs)
        sqrt_sum += std::sqrt(segmentCost(seg, org.ucore.mu));
    hcm_assert(sqrt_sum > 0.0, "parallel weight positive but costs zero");

    // min over shares of Sum c_i / s_i is (Sum sqrt(c_i))^2; mu_eff is
    // the single rate that makes fScale / mu_eff equal that minimum.
    out.org.ucore.mu = out.fScale / (sqrt_sum * sqrt_sum);

    double phi_eff = 0.0;
    for (const Segment &seg : segs) {
        double share = std::sqrt(segmentCost(seg, org.ucore.mu)) / sqrt_sum;
        phi_eff += share * (seg.phiScale * org.ucore.phi);
    }
    out.org.ucore.phi = phi_eff;
    out.org.ucore.check();
    return out;
}

double
effectiveFraction(double f, const SegmentProfile &profile)
{
    if (profile.empty())
        return f;
    return profile.parallelWeight() * f;
}

} // namespace core
} // namespace hcm
