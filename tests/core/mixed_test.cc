/** @file Tests for the mixed U-core chip extension (Section 6.3). */

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/mixed.hh"
#include "core/projection.hh"
#include "devices/measured.hh"

namespace hcm {
namespace core {
namespace {

const itrs::NodeParams &node11 = itrs::nodeParams(11.0);
const itrs::NodeParams &node40 = itrs::nodeParams(40.0);

TEST(WaterfillTest, UncappedSplitFollowsSqrtRule)
{
    // Two slots, equal mu: area ~ sqrt(f). f = {0.25, 0.75} with
    // total 10 -> weights 0.5 : 0.866.
    auto areas = waterfillAreas({0.25, 0.75}, {1.0, 1.0}, {100.0, 100.0},
                                10.0);
    ASSERT_EQ(areas.size(), 2u);
    EXPECT_NEAR(areas[0] + areas[1], 10.0, 1e-9);
    EXPECT_NEAR(areas[1] / areas[0], std::sqrt(3.0), 1e-9);
}

TEST(WaterfillTest, EqualSlotsSplitEqually)
{
    auto areas = waterfillAreas({0.4, 0.4}, {5.0, 5.0}, {100.0, 100.0},
                                8.0);
    EXPECT_NEAR(areas[0], 4.0, 1e-9);
    EXPECT_NEAR(areas[1], 4.0, 1e-9);
}

TEST(WaterfillTest, FasterFabricGetsLessArea)
{
    // Same fraction, mu = 27.4 vs 2.88: the fast fabric needs less.
    auto areas = waterfillAreas({0.5, 0.5}, {27.4, 2.88}, {1e9, 1e9},
                                10.0);
    EXPECT_LT(areas[0], areas[1]);
    EXPECT_NEAR(areas[1] / areas[0], std::sqrt(27.4 / 2.88), 1e-9);
}

TEST(WaterfillTest, CapsPinAndRedistribute)
{
    // Slot 0 capped at 1; the rest of the area flows to slot 1.
    auto areas = waterfillAreas({0.5, 0.5}, {1.0, 1.0}, {1.0, 100.0},
                                10.0);
    EXPECT_NEAR(areas[0], 1.0, 1e-9);
    EXPECT_NEAR(areas[1], 9.0, 1e-9);
}

TEST(WaterfillTest, AllCappedLeavesAreaUnused)
{
    auto areas = waterfillAreas({0.5, 0.5}, {1.0, 1.0}, {2.0, 3.0}, 10.0);
    EXPECT_NEAR(areas[0], 2.0, 1e-9);
    EXPECT_NEAR(areas[1], 3.0, 1e-9);
}

TEST(WaterfillTest, ZeroFractionGetsNoArea)
{
    auto areas = waterfillAreas({0.0, 0.9}, {1.0, 1.0}, {100.0, 100.0},
                                10.0);
    EXPECT_DOUBLE_EQ(areas[0], 0.0);
    EXPECT_NEAR(areas[1], 10.0, 1e-9);
}

TEST(WaterfillTest, MatchesBruteForceOnRandomInstances)
{
    // KKT solution vs a fine grid search over the 2-slot simplex.
    const double fracs[2] = {0.3, 0.6};
    const double mus[2] = {8.47, 2.02};
    const double caps[2] = {4.0, 9.0};
    const double total = 11.0;
    auto areas = waterfillAreas({fracs[0], fracs[1]}, {mus[0], mus[1]},
                                {caps[0], caps[1]}, total);
    auto cost = [&](double a0, double a1) {
        return fracs[0] / (mus[0] * a0) + fracs[1] / (mus[1] * a1);
    };
    double best = 1e300;
    for (double a0 = 0.01; a0 <= std::min(caps[0], total); a0 += 0.001) {
        double a1 = std::min(caps[1], total - a0);
        if (a1 <= 0.0)
            continue;
        best = std::min(best, cost(a0, a1));
    }
    EXPECT_NEAR(cost(areas[0], areas[1]), best, best * 1e-4);
}

TEST(MixedTest, MakeSlotDerivesParameters)
{
    KernelSlot slot = makeSlot(dev::DeviceId::Asic, wl::Workload::mmm(),
                               0.5);
    EXPECT_NEAR(slot.ucore.mu, 27.4, 0.6);
    EXPECT_TRUE(slot.bandwidthExempt);
    EXPECT_EQ(slot.fabricName, "ASIC");
    EXPECT_DEATH(makeSlot(dev::DeviceId::R5870,
                          wl::Workload::blackScholes(), 0.1),
                 "no measurement");
}

TEST(MixedTest, SingleSlotMatchesOptimizeOnEverySegmentFreeScenario)
{
    // One slot covering fraction f is exactly the Section 3.3 chip: the
    // same r grid, the same heterogeneous rows of Table 1 (the thermal
    // row included) and the same limiter tie-break as optimize(), over
    // every calibrated (device, workload) pair, node and scenario.
    std::size_t cases = 0;
    for (const Scenario &scenario : allScenarios()) {
        if (!scenario.segments.empty())
            continue;
        for (const wl::Workload &w : dev::table5Workloads()) {
            for (const Organization &org : paperOrganizations(w)) {
                if (!org.isHet())
                    continue;
                for (const itrs::NodeParams &node : itrs::nodeTable()) {
                    AppliedScenario applied =
                        applyScenario(scenario, node, w);
                    for (double f : {0.5, 0.9, 0.99}) {
                        SCOPED_TRACE(scenario.name + " " + org.name +
                                     ":" + w.name() + " " + node.label() +
                                     " f=" + std::to_string(f));
                        ++cases;
                        MixedDesign mixed = optimizeMixed(
                            {makeSlot(*org.device, w, f)},
                            FabricMode::Partitioned, node, scenario);
                        DesignPoint classic = optimize(
                            applied.organization(org),
                            applied.fraction(f), applied.budget,
                            applied.opts);
                        ASSERT_EQ(mixed.feasible, classic.feasible);
                        if (!classic.feasible)
                            continue;
                        EXPECT_EQ(mixed.r, classic.r);
                        EXPECT_EQ(mixed.slotLimiter.at(0), classic.limiter);
                        EXPECT_EQ(mixed.energy, classic.energy.total());
                        EXPECT_NEAR(mixed.speedup / classic.speedup, 1.0,
                                    1e-12);
                    }
                }
            }
        }
    }
    // 20 calibrated pairs x 5 nodes x 3 fractions x 9 scenarios.
    EXPECT_EQ(cases, 2700u);
}

TEST(MixedTest, PaperSuggestionAsicMmmPlusGpuFft)
{
    // Section 6.3: MMM as custom logic alongside GPU U-cores for the
    // bandwidth-limited FFT. The mix should beat either single shared
    // fabric covering both kernels.
    std::vector<KernelSlot> mix = {
        makeSlot(dev::DeviceId::Asic, wl::Workload::mmm(), 0.5),
        makeSlot(dev::DeviceId::Gtx285, wl::Workload::fft(1024), 0.45),
    };
    std::vector<KernelSlot> gpu_only = {
        makeSlot(dev::DeviceId::Gtx285, wl::Workload::mmm(), 0.5),
        makeSlot(dev::DeviceId::Gtx285, wl::Workload::fft(1024), 0.45),
    };
    MixedDesign mixed = optimizeMixed(mix, FabricMode::Partitioned,
                                      node11);
    MixedDesign shared = optimizeMixed(gpu_only, FabricMode::Shared,
                                       node11);
    ASSERT_TRUE(mixed.feasible && shared.feasible);
    EXPECT_GT(mixed.speedup, shared.speedup);
}

TEST(MixedTest, SharedFabricAreaIsUniformAndCapped)
{
    std::vector<KernelSlot> slots = {
        makeSlot(dev::DeviceId::Lx760, wl::Workload::mmm(), 0.4),
        makeSlot(dev::DeviceId::Lx760, wl::Workload::fft(1024), 0.4),
    };
    MixedDesign d = optimizeMixed(slots, FabricMode::Shared, node40);
    ASSERT_TRUE(d.feasible);
    ASSERT_EQ(d.areas.size(), 2u);
    EXPECT_DOUBLE_EQ(d.areas[0], d.areas[1]);
    EXPECT_LE(d.areas[0] + d.r, node40.maxAreaBce + 1e-9);
}

TEST(MixedTest, PartitionedAreasRespectTheDie)
{
    std::vector<KernelSlot> slots = {
        makeSlot(dev::DeviceId::Asic, wl::Workload::mmm(), 0.3),
        makeSlot(dev::DeviceId::Gtx285, wl::Workload::fft(1024), 0.3),
        makeSlot(dev::DeviceId::Lx760, wl::Workload::blackScholes(), 0.3),
    };
    MixedDesign d = optimizeMixed(slots, FabricMode::Partitioned, node11);
    ASSERT_TRUE(d.feasible);
    double total = d.r;
    for (double a : d.areas)
        total += a;
    EXPECT_LE(total, node11.maxAreaBce + 1e-9);
    EXPECT_EQ(d.slotLimiter.size(), 3u);
}

TEST(MixedTest, BandwidthBoundSlotReportsBandwidth)
{
    // An FFT slot on the ASIC hits the bandwidth cap immediately.
    std::vector<KernelSlot> slots = {
        makeSlot(dev::DeviceId::Asic, wl::Workload::fft(1024), 0.9)};
    MixedDesign d = optimizeMixed(slots, FabricMode::Partitioned, node40);
    ASSERT_TRUE(d.feasible);
    EXPECT_EQ(d.slotLimiter[0], Limiter::Bandwidth);
}

TEST(MixedDeathTest, RejectsOverfullFractions)
{
    std::vector<KernelSlot> slots = {
        makeSlot(dev::DeviceId::Asic, wl::Workload::mmm(), 0.7),
        makeSlot(dev::DeviceId::Gtx285, wl::Workload::fft(1024), 0.7),
    };
    EXPECT_DEATH(optimizeMixed(slots, FabricMode::Partitioned, node11),
                 "sum");
}

TEST(MixedTest, SlotsErrorNamesTheBrokenRule)
{
    auto w = wl::Workload::mmm();
    EXPECT_EQ(slotsError({makeSlot(dev::DeviceId::Asic, w, 0.5)}), "");
    EXPECT_NE(slotsError({}).find("at least one slot"), std::string::npos);
    EXPECT_NE(slotsError({makeSlot(dev::DeviceId::Asic, w, -0.5)})
                  .find("outside [0, 1]"),
              std::string::npos);
    EXPECT_NE(slotsError({makeSlot(dev::DeviceId::Asic, w, NAN)})
                  .find("outside [0, 1]"),
              std::string::npos);
    EXPECT_NE(slotsError({makeSlot(dev::DeviceId::Asic, w, 0.7),
                          makeSlot(dev::DeviceId::Gtx285,
                                   wl::Workload::fft(1024), 0.7)})
                  .find("sum to 1.4 > 1"),
              std::string::npos);
}

TEST(MixedDeathTest, RejectsASegmentProfile)
{
    // The slots are the phases; a segment profile would split them a
    // second time.
    std::vector<KernelSlot> slots = {
        makeSlot(dev::DeviceId::Asic, wl::Workload::mmm(), 0.5)};
    EXPECT_DEATH(optimizeMixed(slots, FabricMode::Partitioned, node11,
                               scenarioByName("multi-amdahl")),
                 "segment profile");
}

/** Property sweep: the partitioned mix of the per-kernel best fabrics
 *  is never worse than assigning both kernels to one of them. */
class MixDominates : public ::testing::TestWithParam<double>
{
};

TEST_P(MixDominates, OverUniformAssignment)
{
    double f_each = GetParam();
    std::vector<KernelSlot> mix = {
        makeSlot(dev::DeviceId::Asic, wl::Workload::mmm(), f_each),
        makeSlot(dev::DeviceId::Gtx285, wl::Workload::fft(1024), f_each),
    };
    std::vector<KernelSlot> all_gpu = {
        makeSlot(dev::DeviceId::Gtx285, wl::Workload::mmm(), f_each),
        makeSlot(dev::DeviceId::Gtx285, wl::Workload::fft(1024), f_each),
    };
    MixedDesign mixed = optimizeMixed(mix, FabricMode::Partitioned,
                                      node11);
    MixedDesign uniform = optimizeMixed(all_gpu, FabricMode::Partitioned,
                                        node11);
    ASSERT_TRUE(mixed.feasible && uniform.feasible);
    EXPECT_GE(mixed.speedup, uniform.speedup * 0.999)
        << "f_each=" << f_each;
}

INSTANTIATE_TEST_SUITE_P(Fractions, MixDominates,
                         ::testing::Values(0.2, 0.3, 0.45, 0.495));

} // namespace
} // namespace core
} // namespace hcm
