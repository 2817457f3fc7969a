/**
 * @file
 * Tests for the two extension model families (ROADMAP open item 3):
 * the Multi-Amdahl segment reduction (core/multi_amdahl.hh) and the
 * thermal bound (Budget::thermal through bounds/optimizer/batch).
 *
 * The PR 9 0-ULP discipline extends to both: a fixed-seed randomized
 * sweep with finite thermal budgets memcmp's optimize() and the
 * BatchEvaluator against optimizeScalar(), and a single-segment
 * profile with unit scales must reproduce the classic single-f model
 * byte-for-byte end to end.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/budget.hh"
#include "core/multi_amdahl.hh"
#include "core/optimizer_batch.hh"
#include "core/org_rules.hh"
#include "core/pareto.hh"
#include "core/projection.hh"
#include "itrs/scaling.hh"
#include "oracle/scalar_oracle.hh"
#include "workloads/workload.hh"

namespace hcm {
namespace core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Bitwise double equality: distinguishes what == cannot (0-ULP). */
::testing::AssertionResult
bitEq(double a, double b)
{
    if (std::memcmp(&a, &b, sizeof(double)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ in bits";
}

/** The thermal row of Table 1 for @p org at core size @p r. */
double
thermalBoundN(const Organization &org, double r, const Budget &budget,
              double alpha)
{
    return OrgRules(org).rows(r, budget, alpha).thermal;
}

/**
 * Reference evaluation: the parallel-phase time of the explicit
 * per-segment sum at shares @p shares, in units where the U-core pool
 * (n - r) is 1 and the sweep fraction f is 1 — i.e. Sum_i c_i / s_i
 * with c_i = w_i f_i / (muScale_i mu). The reduction theorem says
 * minimizing this equals fScale / mu_eff.
 */
double
segmentParallelTimeRef(const SegmentProfile &profile, double mu,
                       const std::vector<double> &shares)
{
    EXPECT_EQ(shares.size(), profile.segments.size());
    double time = 0.0;
    for (std::size_t i = 0; i < profile.segments.size(); ++i) {
        const Segment &seg = profile.segments[i];
        double c = seg.weight * seg.f / (seg.muScale * mu);
        if (c == 0.0)
            continue; // no parallel work in this segment
        EXPECT_GT(shares[i], 0.0)
            << "segment with parallel work granted zero area";
        time += c / shares[i];
    }
    return time;
}

void
expectBitIdentical(const DesignPoint &got, const DesignPoint &want)
{
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_TRUE(bitEq(got.f, want.f));
    EXPECT_TRUE(bitEq(got.r, want.r));
    EXPECT_TRUE(bitEq(got.n, want.n));
    EXPECT_TRUE(bitEq(got.speedup, want.speedup));
    EXPECT_EQ(got.limiter, want.limiter);
    EXPECT_TRUE(bitEq(got.energy.serial, want.energy.serial));
    EXPECT_TRUE(bitEq(got.energy.parallel, want.energy.parallel));
}

Organization
hetOrg(double mu, double phi, bool exempt = false)
{
    Organization o;
    o.kind = OrgKind::Heterogeneous;
    o.name = "test-ucore";
    o.ucore = UCoreParams{mu, phi};
    o.bandwidthExempt = exempt;
    return o;
}

// ---------------------------------------------------------------------
// Thermal bound
// ---------------------------------------------------------------------

TEST(ThermalBoundTest, RowsMirrorPowerRowsWithThermalBudget)
{
    Budget b{100.0, 40.0, 50.0, 25.0};
    double alpha = 1.75;
    // Same Table 1 shapes as powerBoundN with TH substituted for P.
    EXPECT_TRUE(bitEq(thermalBoundN(symmetricCmp(), 4.0, b, alpha),
                      25.0 / std::pow(4.0, alpha / 2.0 - 1.0)));
    EXPECT_TRUE(bitEq(thermalBoundN(asymmetricCmp(), 4.0, b, alpha),
                      25.0 + 4.0));
    Organization het = hetOrg(8.0, 0.5);
    EXPECT_TRUE(bitEq(thermalBoundN(het, 4.0, b, alpha),
                      25.0 / 0.5 + 4.0));
    EXPECT_TRUE(bitEq(thermalBoundN(dynamicCmp(), 4.0, b, alpha), 25.0));
}

TEST(ThermalBoundTest, InfiniteThermalBudgetIsVacuous)
{
    Budget with{100.0, 40.0, 50.0, kInf};
    Budget without{100.0, 40.0, 50.0};
    EXPECT_TRUE(bitEq(without.thermal, kInf)); // the default
    double alpha = 2.25;
    for (const Organization &org :
         {symmetricCmp(), asymmetricCmp(), hetOrg(4.0, 0.8)}) {
        for (double r : {1.0, 3.0, 9.5}) {
            EXPECT_EQ(thermalBoundN(org, r, with, alpha), kInf);
            ParallelBound a = parallelBound(org, r, with, alpha);
            ParallelBound b = parallelBound(org, r, without, alpha);
            EXPECT_TRUE(bitEq(a.n, b.n));
            EXPECT_EQ(a.limiter, b.limiter);
        }
    }
    EXPECT_TRUE(bitEq(serialRCap(with, alpha), serialRCap(without, alpha)));
}

TEST(ThermalBoundTest, ClassifyPrecedenceAreaBandwidthThermalPower)
{
    // Area wins every tie it joins; bandwidth beats thermal and power;
    // thermal beats power.
    EXPECT_EQ(classifyLimiter(1.0, 2.0, 3.0, 4.0), Limiter::Area);
    EXPECT_EQ(classifyLimiter(5.0, 2.0, 3.0, 4.0), Limiter::Power);
    EXPECT_EQ(classifyLimiter(5.0, 4.0, 2.0, 3.0), Limiter::Bandwidth);
    EXPECT_EQ(classifyLimiter(5.0, 4.0, 3.0, 2.0), Limiter::Thermal);
    EXPECT_EQ(classifyLimiter(2.0, 2.0, 2.0, 2.0), Limiter::Area);
    EXPECT_EQ(classifyLimiter(5.0, 2.0, 2.0, 2.0), Limiter::Bandwidth);
    EXPECT_EQ(classifyLimiter(5.0, 2.0, 3.0, 2.0), Limiter::Thermal);
    EXPECT_EQ(limiterName(Limiter::Thermal), "thermal");
}

TEST(ThermalBoundTest, SerialCapHonorsThermalRow)
{
    // TH < P: the serial thermal row r^(alpha/2) <= TH binds first.
    Budget b{1000.0, 100.0, 1e9, 9.0};
    double alpha = 2.0;
    EXPECT_TRUE(bitEq(serialRCap(b, alpha),
                      model::maxSerialRForPower(9.0, alpha)));
}

TEST(ThermalBoundTest, MakeBudgetDerivesThermalInPowerUnits)
{
    const wl::Workload w = wl::Workload::mmm();
    const itrs::NodeParams &node = itrs::nodeTable().front();
    Budget base = makeBudget(node, w, baselineScenario());
    EXPECT_TRUE(bitEq(base.thermal, kInf));

    const Scenario &thermal = scenarioByName("thermal-85c");
    Budget tb = makeBudget(node, w, thermal);
    // Same conversion as the power budget: BCE power at this node.
    double bce_w = BceCalibration::standard().bcePower().value() *
                   node.relPowerPerTransistor;
    EXPECT_TRUE(bitEq(tb.thermal, thermalDynamicPowerW(thermal) / bce_w));
    // 87.9 W of admissible dynamic power under a 100 W budget: the
    // thermal bound is strictly tighter than power at every node.
    EXPECT_LT(tb.thermal, tb.power);
}

TEST(ThermalBoundTest, ThermalScenarioReportsThermalLimiter)
{
    // Under thermal-85c the symmetric CMP at the 40nm node must be
    // thermally limited once area stops binding: TH < P everywhere.
    const wl::Workload w = wl::Workload::mmm();
    const Scenario &scenario = scenarioByName("thermal-85c");
    bool saw_thermal = false;
    for (const itrs::NodeParams &node : itrs::nodeTable()) {
        Budget b = makeBudget(node, w, scenario);
        OptimizerOptions opts;
        opts.alpha = scenario.alpha;
        DesignPoint dp = optimize(symmetricCmp(), 0.99, b, opts);
        ASSERT_TRUE(dp.feasible);
        EXPECT_NE(dp.limiter, Limiter::Power)
            << "thermal is tighter than power, power cannot bind";
        if (dp.limiter == Limiter::Thermal)
            saw_thermal = true;
    }
    EXPECT_TRUE(saw_thermal);
}

TEST(ThermalBoundTest, RandomizedSweepMatchesScalarOracleBitForBit)
{
    // The PR 9 fixed-seed discipline with a finite thermal budget in
    // play: batch and scalar paths must agree to the bit across kinds,
    // objectives, alphas, and continuousR.
    std::mt19937 rng(20260807);
    std::uniform_real_distribution<double> uarea(1.0, 400.0);
    std::uniform_real_distribution<double> upow(0.4, 300.0);
    std::uniform_real_distribution<double> ubw(0.4, 300.0);
    std::uniform_real_distribution<double> uth(0.4, 300.0);
    std::uniform_real_distribution<double> umu(0.25, 64.0);
    std::uniform_real_distribution<double> uphi(0.05, 2.0);
    std::uniform_real_distribution<double> uf(0.0, 1.0);
    std::bernoulli_distribution coin(0.5);
    const OrgKind kinds[] = {
        OrgKind::SymmetricCmp,
        OrgKind::AsymmetricCmp,
        OrgKind::Heterogeneous,
        OrgKind::DynamicCmp,
    };

    for (int trial = 0; trial < 400; ++trial) {
        OrgKind kind = kinds[trial % 4];
        Organization org = kind == OrgKind::Heterogeneous
                               ? hetOrg(umu(rng), uphi(rng), coin(rng))
                               : (kind == OrgKind::SymmetricCmp
                                      ? symmetricCmp()
                                      : (kind == OrgKind::AsymmetricCmp
                                             ? asymmetricCmp()
                                             : dynamicCmp()));
        // Every third trial leaves thermal unbounded so the vacuous
        // path stays covered alongside binding draws.
        Budget budget{uarea(rng), upow(rng), ubw(rng),
                      trial % 3 == 0 ? kInf : uth(rng)};
        OptimizerOptions opts;
        opts.alpha = coin(rng) ? 1.75 : 2.25;
        opts.continuousR = coin(rng);
        opts.objective =
            coin(rng) ? Objective::MaxSpeedup : Objective::MinEnergy;

        BatchEvaluator evaluator(org, budget, opts);
        double fractions[] = {0.0, uf(rng), 0.999, 1.0};
        for (double f : fractions) {
            DesignPoint want = optimizeScalar(org, f, budget, opts);
            expectBitIdentical(optimize(org, f, budget, opts), want);
            expectBitIdentical(evaluator.best(f), want);
        }
    }
}

TEST(ThermalBoundTest, EnumerateDesignsMatchesScalarOnThermalScenarios)
{
    const wl::Workload w = wl::Workload::mmm();
    const std::vector<itrs::NodeParams> &nodes = itrs::nodeTable();
    for (const char *name : {"thermal-85c", "thermal-3d"}) {
        const Scenario &scenario = scenarioByName(name);
        for (std::size_t ni : {std::size_t{0}, nodes.size() - 1}) {
            for (double f : {0.0, 0.9, 1.0}) {
                auto batch = enumerateDesigns(w, f, nodes[ni], scenario);
                auto scalar =
                    enumerateDesignsScalar(w, f, nodes[ni], scenario);
                ASSERT_EQ(batch.size(), scalar.size())
                    << name << " node=" << ni << " f=" << f;
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    EXPECT_EQ(batch[i].orgName, scalar[i].orgName);
                    expectBitIdentical(batch[i].design, scalar[i].design);
                    EXPECT_TRUE(bitEq(batch[i].energyNormalized,
                                      scalar[i].energyNormalized));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Multi-Amdahl reduction
// ---------------------------------------------------------------------

SegmentProfile
canonicalSingleSegment()
{
    SegmentProfile p;
    p.segments = {{"whole-program", 1.0, 1.0, 1.0, 1.0}};
    return p;
}

TEST(MultiAmdahlTest, EmptyProfileIsIdentity)
{
    Organization het = hetOrg(8.0, 0.5);
    SegmentProfile empty;
    EffectiveOrg eff = effectiveOrganization(het, empty);
    EXPECT_TRUE(bitEq(eff.fScale, 1.0));
    EXPECT_TRUE(bitEq(eff.org.ucore.mu, het.ucore.mu));
    EXPECT_TRUE(bitEq(eff.org.ucore.phi, het.ucore.phi));
    EXPECT_TRUE(bitEq(effectiveFraction(0.7, empty), 0.7));
}

TEST(MultiAmdahlTest, SingleCanonicalSegmentReproducesClassicBitForBit)
{
    // N = 1 with unit weight/fraction/scales: the acceptance bar is
    // byte identity with the single-f model, through the full
    // optimizer on every organization kind.
    SegmentProfile one = canonicalSingleSegment();
    Budget budget{220.0, 45.0, 60.0};
    for (const Organization &org :
         {symmetricCmp(), asymmetricCmp(), hetOrg(12.0, 0.6),
          dynamicCmp()}) {
        EffectiveOrg eff = effectiveOrganization(org, one);
        EXPECT_TRUE(bitEq(eff.fScale, 1.0));
        EXPECT_TRUE(bitEq(eff.org.ucore.mu, org.ucore.mu));
        EXPECT_TRUE(bitEq(eff.org.ucore.phi, org.ucore.phi));
        for (double f : {0.0, 0.5, 0.999, 1.0}) {
            double f_eff = effectiveFraction(f, one);
            EXPECT_TRUE(bitEq(f_eff, f));
            expectBitIdentical(optimize(eff.org, f_eff, budget, {}),
                               optimize(org, f, budget, {}));
        }
    }
}

TEST(MultiAmdahlTest, SingleScaledSegmentScalesUcoreDirectly)
{
    Organization het = hetOrg(10.0, 0.8);
    SegmentProfile one;
    one.segments = {{"kernel", 1.0, 0.9, 0.5, 1.25}};
    EffectiveOrg eff = effectiveOrganization(het, one);
    EXPECT_TRUE(bitEq(eff.fScale, 0.9));
    EXPECT_TRUE(bitEq(eff.org.ucore.mu, 0.5 * 10.0));
    EXPECT_TRUE(bitEq(eff.org.ucore.phi, 1.25 * 0.8));
    EXPECT_TRUE(bitEq(effectiveFraction(0.5, one), 0.9 * 0.5));
}

TEST(MultiAmdahlTest, SharesAreTheLagrangeOptimum)
{
    const SegmentProfile &profile =
        scenarioByName("multi-amdahl").segments;
    double mu = 16.0;
    std::vector<double> shares = segmentShares(profile, mu);
    ASSERT_EQ(shares.size(), profile.segments.size());
    double sum = 0.0;
    for (double s : shares) {
        EXPECT_GT(s, 0.0);
        sum += s;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);

    // KKT check: any feasible perturbation of the optimal split makes
    // the explicit per-segment parallel time strictly worse.
    double best = segmentParallelTimeRef(profile, mu, shares);
    for (std::size_t i = 0; i < shares.size(); ++i) {
        for (std::size_t j = 0; j < shares.size(); ++j) {
            if (i == j)
                continue;
            std::vector<double> moved = shares;
            double d = 0.2 * std::min(moved[i], moved[j]);
            moved[i] += d;
            moved[j] -= d;
            EXPECT_GT(segmentParallelTimeRef(profile, mu, moved),
                      best * (1.0 + 1e-9))
                << "moving area " << j << " -> " << i << " helped";
        }
    }
}

TEST(MultiAmdahlTest, ReductionMatchesExplicitSegmentSum)
{
    // The reduction theorem: the effective single-f model's parallel
    // time equals the explicit per-segment sum at the optimal shares,
    // i.e. fScale / mu_eff == min over shares of Sum c_i / s_i.
    const SegmentProfile &profile =
        scenarioByName("multi-amdahl").segments;
    for (double mu : {2.0, 16.0, 64.0}) {
        Organization het = hetOrg(mu, 0.7);
        EffectiveOrg eff = effectiveOrganization(het, profile);
        std::vector<double> shares = segmentShares(profile, mu);
        double explicit_time =
            segmentParallelTimeRef(profile, mu, shares);
        EXPECT_NEAR(eff.fScale / eff.org.ucore.mu, explicit_time,
                    1e-12 * explicit_time)
            << "mu=" << mu;
        // And phi_eff is the share-weighted mix of segment powers.
        double phi_mix = 0.0;
        for (std::size_t i = 0; i < shares.size(); ++i)
            phi_mix += shares[i] *
                       (profile.segments[i].phiScale * het.ucore.phi);
        EXPECT_NEAR(eff.org.ucore.phi, phi_mix, 1e-12);
    }
}

TEST(MultiAmdahlTest, NonHetKindsOnlyScaleTheFraction)
{
    const SegmentProfile &profile =
        scenarioByName("multi-amdahl").segments;
    double f_scale = profile.parallelWeight();
    for (const Organization &org :
         {symmetricCmp(), asymmetricCmp(), dynamicCmp()}) {
        EffectiveOrg eff = effectiveOrganization(org, profile);
        EXPECT_TRUE(bitEq(eff.fScale, f_scale));
        EXPECT_TRUE(bitEq(eff.org.ucore.mu, org.ucore.mu)) << org.name;
        EXPECT_TRUE(bitEq(eff.org.ucore.phi, org.ucore.phi)) << org.name;
        // The evaluation is literally the classic model at f_eff.
        Budget budget{300.0, 70.0, 90.0};
        for (double f : {0.0, 0.8, 1.0}) {
            double f_eff = effectiveFraction(f, profile);
            EXPECT_TRUE(bitEq(f_eff, f_scale * f));
            expectBitIdentical(optimize(eff.org, f_eff, budget, {}),
                               optimize(org, f_eff, budget, {}));
        }
    }
}

TEST(MultiAmdahlTest, EnumerateDesignsMatchesScalarOnMultiAmdahl)
{
    const wl::Workload w = wl::Workload::mmm();
    const Scenario &scenario = scenarioByName("multi-amdahl");
    const std::vector<itrs::NodeParams> &nodes = itrs::nodeTable();
    for (std::size_t ni : {std::size_t{0}, nodes.size() - 1}) {
        for (double f : {0.0, 0.9, 1.0}) {
            auto batch = enumerateDesigns(w, f, nodes[ni], scenario);
            auto scalar =
                enumerateDesignsScalar(w, f, nodes[ni], scenario);
            ASSERT_EQ(batch.size(), scalar.size())
                << "node=" << ni << " f=" << f;
            for (std::size_t i = 0; i < batch.size(); ++i) {
                EXPECT_EQ(batch[i].orgName, scalar[i].orgName);
                expectBitIdentical(batch[i].design, scalar[i].design);
                EXPECT_TRUE(bitEq(batch[i].energyNormalized,
                                  scalar[i].energyNormalized));
            }
        }
    }
}

TEST(MultiAmdahlTest, ProjectionWithSingleSegmentMatchesBaselineBytes)
{
    // End-to-end N = 1 reduction: a scenario whose only difference
    // from baseline is a canonical single-segment profile projects
    // byte-identically to baseline for every organization and node.
    const wl::Workload w = wl::Workload::fft(1024);
    Scenario canonical = baselineScenario();
    canonical.name = "baseline-one-segment";
    canonical.segments = canonicalSingleSegment();
    for (double f : {0.5, 0.999}) {
        auto base = projectAll(w, f, baselineScenario());
        auto seg = projectAll(w, f, canonical);
        ASSERT_EQ(base.size(), seg.size());
        for (std::size_t oi = 0; oi < base.size(); ++oi) {
            ASSERT_EQ(base[oi].points.size(), seg[oi].points.size());
            for (std::size_t ni = 0; ni < base[oi].points.size(); ++ni)
                expectBitIdentical(seg[oi].points[ni].design,
                                   base[oi].points[ni].design);
        }
    }
}

TEST(MultiAmdahlDeathTest, RejectsMalformedProfiles)
{
    Organization het = hetOrg(8.0, 0.5);
    SegmentProfile bad_weight;
    bad_weight.segments = {{"a", 0.5, 1.0, 1.0, 1.0},
                           {"b", 0.2, 1.0, 1.0, 1.0}};
    EXPECT_DEATH(effectiveOrganization(het, bad_weight), "sum to 1");
    SegmentProfile bad_f;
    bad_f.segments = {{"a", 1.0, 1.5, 1.0, 1.0}};
    EXPECT_DEATH(effectiveOrganization(het, bad_f), "\\[0, 1\\]");
    SegmentProfile bad_mu;
    bad_mu.segments = {{"a", 1.0, 0.5, 0.0, 1.0}};
    EXPECT_DEATH(effectiveOrganization(het, bad_mu), "muScale");
}

} // namespace
} // namespace core
} // namespace hcm
