/**
 * @file
 * The asymmetric-offload CMP is the Offload form with a unit tile: an
 * asymmetricCmp() and a heterogeneous organization with U-core
 * (mu, phi) = (1, 1) must agree bit for bit through every function that
 * reads organization rules, on seeded draws, with each batch kernel
 * pinned. x / 1.0, 1.0 * x and f * 1.0 / 1.0 are exact in IEEE-754, so
 * any difference is a rule that still special-cases the asymmetric CMP.
 */

#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/optimizer_batch.hh"
#include "core/profile.hh"
#include "sim/machine.hh"

namespace hcm {
namespace core {
namespace {

::testing::AssertionResult
bitEq(double a, double b)
{
    if (std::memcmp(&a, &b, sizeof(double)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ in bits";
}

void
expectSameDesign(const DesignPoint &a, const DesignPoint &b)
{
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_TRUE(bitEq(a.f, b.f));
    EXPECT_TRUE(bitEq(a.r, b.r));
    EXPECT_TRUE(bitEq(a.n, b.n));
    EXPECT_TRUE(bitEq(a.speedup, b.speedup));
    EXPECT_EQ(a.limiter, b.limiter);
    EXPECT_TRUE(bitEq(a.energy.serial, b.energy.serial));
    EXPECT_TRUE(bitEq(a.energy.parallel, b.energy.parallel));
}

TEST(OrganizationRulesTest, AsymmetricCmpIsAUnitUCore)
{
    const Organization asym = asymmetricCmp();
    Organization unit;
    unit.kind = OrgKind::Heterogeneous;
    unit.name = "unit-ucore";
    unit.ucore = UCoreParams{1.0, 1.0};

    std::vector<BatchKernel> kernels = {BatchKernel::Scalar};
    if (batchSimdCompiledIn())
        kernels.push_back(BatchKernel::Simd);
    const double kInf = std::numeric_limits<double>::infinity();

    for (BatchKernel kernel : kernels) {
        detail::forceBatchKernelForTest(&kernel);
        std::mt19937 rng(0x5eed0a5);
        std::uniform_real_distribution<double> u01(0.0, 1.0);
        for (int trial = 0; trial < 600; ++trial) {
            Budget b{1.0 + 300.0 * u01(rng), 0.5 + 200.0 * u01(rng),
                     0.5 + 300.0 * u01(rng),
                     trial % 3 == 0 ? 1.0 + 150.0 * u01(rng) : kInf};
            OptimizerOptions opts;
            opts.alpha = trial % 2 == 0 ? 1.75 : 1.5 + u01(rng);
            opts.rMax = trial % 5 == 0 ? 64.0 : 16.0;
            opts.continuousR = trial % 4 < 2;
            opts.objective = trial % 7 < 4 ? Objective::MaxSpeedup
                                           : Objective::MinEnergy;
            for (double f : {0.0, 1e-9, 0.5, 0.9, 0.99, 0.999, 1.0,
                             u01(rng)}) {
                std::ostringstream draw;
                draw.precision(17);
                draw << "kernel=" << static_cast<int>(kernel)
                     << " trial=" << trial << " f=" << f
                     << " A=" << b.area << " P=" << b.power
                     << " B=" << b.bandwidth << " TH=" << b.thermal
                     << " alpha=" << opts.alpha << " rMax=" << opts.rMax
                     << " continuousR=" << opts.continuousR;
                SCOPED_TRACE(draw.str());

                DesignPoint a = optimize(asym, f, b, opts);
                expectSameDesign(a, optimize(unit, f, b, opts));

                for (double r : {1.0, 2.5, a.r}) {
                    ParallelBound pa = parallelBound(asym, r, b, opts.alpha);
                    ParallelBound pu = parallelBound(unit, r, b, opts.alpha);
                    EXPECT_TRUE(bitEq(pa.n, pu.n));
                    EXPECT_EQ(pa.limiter, pu.limiter);
                }

                ParallelismProfile profile =
                    ParallelismProfile::geometric(f, 3, 2.0, 4.0);
                expectSameDesign(optimizeProfiled(asym, profile, b, opts),
                                 optimizeProfiled(unit, profile, b, opts));
                if (!a.feasible)
                    continue;

                EXPECT_TRUE(bitEq(evaluateSpeedup(asym, f, a.r, a.n),
                                  evaluateSpeedup(unit, f, a.r, a.n)));
                EnergyBreakdown ea = designEnergy(asym, f, a.r, a.n,
                                                  opts.alpha);
                EnergyBreakdown eu = designEnergy(unit, f, a.r, a.n,
                                                  opts.alpha);
                EXPECT_TRUE(bitEq(ea.serial, eu.serial));
                EXPECT_TRUE(bitEq(ea.parallel, eu.parallel));
                EXPECT_TRUE(bitEq(profiledSpeedup(asym, profile, a.r, a.n),
                                  profiledSpeedup(unit, profile, a.r, a.n)));

                if (a.n - a.r < 1.0)
                    continue; // rounds to no whole tile
                sim::Machine ma = sim::Machine::fromDesign(asym, a, b,
                                                           opts.alpha);
                sim::Machine mu = sim::Machine::fromDesign(unit, a, b,
                                                           opts.alpha);
                EXPECT_EQ(ma.tiles, mu.tiles);
                EXPECT_TRUE(bitEq(ma.serialPerf, mu.serialPerf));
                EXPECT_TRUE(bitEq(ma.serialPower, mu.serialPower));
                EXPECT_TRUE(bitEq(ma.tilePerf, mu.tilePerf));
                EXPECT_TRUE(bitEq(ma.tilePower, mu.tilePower));
                EXPECT_TRUE(bitEq(ma.bandwidth, mu.bandwidth));
            }
        }
    }
    detail::forceBatchKernelForTest(nullptr);
}

} // namespace
} // namespace core
} // namespace hcm
