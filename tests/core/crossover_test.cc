/** @file Tests for the crossover (required-parallelism) analysis. */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "core/crossover.hh"
#include "core/multi_amdahl.hh"
#include "core/projection.hh"
#include "util/math.hh"

namespace hcm {
namespace core {
namespace {

const itrs::NodeParams &node22 = itrs::nodeParams(22.0);

Organization
het(double mu, double phi)
{
    Organization o;
    o.kind = OrgKind::Heterogeneous;
    o.name = "test-ucore";
    o.ucore = UCoreParams{mu, phi};
    return o;
}

TEST(CrossoverTest, RatioBasics)
{
    Budget b{64.0, 12.0, 80.0};
    Organization fast = het(10.0, 0.8);
    // At f = 0: both reduce to sqrt(r) with the same serial bounds.
    EXPECT_NEAR(speedupRatio(fast, asymmetricCmp(), 0.0, b), 1.0, 1e-9);
    // At high f the U-core dominates.
    EXPECT_GT(speedupRatio(fast, asymmetricCmp(), 0.99, b), 3.0);
}

TEST(CrossoverTest, RatioHandlesInfeasibility)
{
    Budget tiny{64.0, 0.5, 80.0}; // serial bounds kill everyone
    EXPECT_DOUBLE_EQ(
        speedupRatio(het(4.0, 1.0), asymmetricCmp(), 0.9, tiny), 0.0);
}

TEST(CrossoverTest, FractionBracketsTheTarget)
{
    const wl::Workload w = wl::Workload::mmm();
    auto f_star = requiredParallelism(dev::DeviceId::Asic, w, 1.5, node22);
    ASSERT_TRUE(f_star);
    EXPECT_GT(*f_star, 0.0);
    EXPECT_LT(*f_star, 1.0);
    // Just below: under target against the better CMP; just above: over.
    const Scenario baseline = baselineScenario();
    AppliedScenario applied = applyScenario(baseline, node22, w);
    Organization asic =
        applied.organization(*heterogeneous(dev::DeviceId::Asic, w));
    auto ratio = [&](double f) {
        return std::min(
            speedupRatio(asic, symmetricCmp(), f, applied.budget,
                         applied.opts),
            speedupRatio(asic, asymmetricCmp(), f, applied.budget,
                         applied.opts));
    };
    EXPECT_LT(ratio(*f_star - 0.01), 1.5);
    EXPECT_GE(ratio(*f_star + 0.01), 1.5);
}

TEST(CrossoverTest, UnreachableTargetIsNullopt)
{
    // No fabric ever beats the better CMP a thousandfold.
    EXPECT_FALSE(requiredParallelism(dev::DeviceId::Asic,
                                     wl::Workload::mmm(), 1000.0, node22));
}

TEST(CrossoverTest, TrivialTargetReturnsLowBound)
{
    // At f = 0 every chip is its serial core, so a 0.5x target is met
    // at the low end of the bracket.
    auto f_star = requiredParallelism(dev::DeviceId::Gtx285,
                                      wl::Workload::fft(1024), 0.5, node22);
    ASSERT_TRUE(f_star);
    EXPECT_DOUBLE_EQ(*f_star, 0.0);
}

TEST(CrossoverTest, PaperConclusionOneQuantified)
{
    // "Pronounced differences emerge when f >= 0.90": a 1.5x edge over
    // the best CMP requires high parallelism for every fabric with
    // data, on every workload.
    for (const wl::Workload &w :
         {wl::Workload::fft(1024), wl::Workload::blackScholes(),
          wl::Workload::mmm()}) {
        for (dev::DeviceId id : {dev::DeviceId::Gtx285,
                                 dev::DeviceId::Asic}) {
            auto f_star = requiredParallelism(id, w, 1.5, node22);
            ASSERT_TRUE(f_star) << w.name();
            EXPECT_GT(*f_star, 0.5)
                << dev::deviceName(id) << " " << w.name();
            EXPECT_LT(*f_star, 0.99)
                << dev::deviceName(id) << " " << w.name();
        }
    }
}

TEST(CrossoverTest, BetterFabricsNeedLessParallelism)
{
    auto w = wl::Workload::mmm();
    auto f_asic = requiredParallelism(dev::DeviceId::Asic, w, 2.0,
                                      node22);
    auto f_gpu = requiredParallelism(dev::DeviceId::Gtx480, w, 2.0,
                                     node22);
    ASSERT_TRUE(f_asic && f_gpu);
    EXPECT_LT(*f_asic, *f_gpu);
}

TEST(CrossoverTest, MissingCalibrationIsNullopt)
{
    EXPECT_FALSE(requiredParallelism(dev::DeviceId::R5870,
                                     wl::Workload::blackScholes(), 1.5,
                                     node22));
}

TEST(CrossoverTest, MultiAmdahlBisectsTheEffectiveOrganizations)
{
    // The scenario's segment profile reaches the crossover: the answer
    // is a bisection over the sweep fraction f of the effective HET
    // against the better effective CMP, each optimized at f_eff.
    const Scenario &scenario = scenarioByName("multi-amdahl");
    const wl::Workload w = wl::Workload::fft(1024);
    const double target = 1.5;
    for (dev::DeviceId id : {dev::DeviceId::Asic, dev::DeviceId::Gtx285,
                             dev::DeviceId::Lx760}) {
        for (const itrs::NodeParams &node : itrs::nodeTable()) {
            Budget budget = makeBudget(node, w, scenario);
            OptimizerOptions opts;
            opts.alpha = scenario.alpha;
            Organization het =
                effectiveOrganization(*heterogeneous(id, w),
                                      scenario.segments)
                    .org;
            auto gap = [&](double f) {
                double f_eff = effectiveFraction(f, scenario.segments);
                DesignPoint c = optimize(het, f_eff, budget, opts);
                if (!c.feasible)
                    return -target;
                double best_cmp = 0.0;
                for (const Organization &cmp :
                     {symmetricCmp(), asymmetricCmp()}) {
                    DesignPoint dp = optimize(
                        effectiveOrganization(cmp, scenario.segments).org,
                        f_eff, budget, opts);
                    if (dp.feasible)
                        best_cmp = std::max(best_cmp, dp.speedup);
                }
                if (best_cmp <= 0.0)
                    return target;
                return c.speedup / best_cmp - target;
            };
            std::optional<double> want;
            if (gap(0.9999) >= 0.0)
                want = gap(0.0) >= 0.0 ? 0.0
                                       : bisect(gap, 0.0, 0.9999, 1e-5);

            auto got = requiredParallelism(id, w, target, node, scenario);
            std::string where =
                dev::deviceName(id) + " at " + node.label();
            ASSERT_EQ(got.has_value(), want.has_value()) << where;
            if (got) {
                EXPECT_EQ(*got, *want) << where;
            }
        }
    }
    // The profile moves the answer: at 40nm the ASIC needs more
    // parallelism than under the baseline, and the GPUs never get there.
    const itrs::NodeParams &node40 = itrs::nodeParams(40.0);
    auto asic = requiredParallelism(dev::DeviceId::Asic, w, target,
                                    node40, scenario);
    auto asic_base =
        requiredParallelism(dev::DeviceId::Asic, w, target, node40);
    ASSERT_TRUE(asic && asic_base);
    EXPECT_GT(*asic, *asic_base);
    EXPECT_FALSE(requiredParallelism(dev::DeviceId::Gtx285, w, target,
                                     node40, scenario));
}

} // namespace
} // namespace core
} // namespace hcm
