/**
 * @file
 * Batch-kernel oracle suite: the SoA BatchEvaluator behind optimize()
 * and enumerateDesigns() must reproduce the scalar reference
 * implementations BIT-FOR-BIT (a 0-ULP bound — see DESIGN.md "SoA
 * batch kernel"). A fixed-seed randomized sweep crosses all four
 * organization kinds with random budgets, fractions, alphas,
 * objectives, and continuousR; edge cases (f = 0, f = 1, r at the
 * serial cap, infeasible budgets) are pinned explicitly; and the SIMD
 * value pass is checked word-for-word against the scalar pass.
 */

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/optimizer_batch.hh"
#include "core/pareto.hh"
#include "itrs/scaling.hh"
#include "oracle/scalar_oracle.hh"
#include "workloads/workload.hh"

namespace hcm {
namespace core {
namespace {

/** Bitwise double equality: distinguishes what == cannot (0-ULP). */
::testing::AssertionResult
bitEq(double a, double b)
{
    if (std::memcmp(&a, &b, sizeof(double)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ in bits";
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
orgOfKind(OrgKind kind, double mu, double phi, bool exempt)
{
    switch (kind) {
      case OrgKind::SymmetricCmp:
        return symmetricCmp();
      case OrgKind::AsymmetricCmp:
        return asymmetricCmp();
      case OrgKind::DynamicCmp:
        return dynamicCmp();
      case OrgKind::Heterogeneous:
        break;
    }
    Organization o;
    o.kind = OrgKind::Heterogeneous;
    o.name = "random-ucore";
    o.ucore = UCoreParams{mu, phi};
    o.bandwidthExempt = exempt;
    return o;
}

TEST(BatchEvaluatorTest, RandomizedSweepMatchesScalarOracleBitForBit)
{
    // Fixed seed: the suite is a deterministic regression net, not a
    // fuzzer. 400 triples x ~5 fractions covers every kind/objective/
    // continuousR/alpha combination many times over.
    std::mt19937 rng(20260807);
    std::uniform_real_distribution<double> uarea(1.0, 400.0);
    std::uniform_real_distribution<double> upow(0.4, 300.0);
    std::uniform_real_distribution<double> ubw(0.4, 300.0);
    std::uniform_real_distribution<double> umu(0.25, 64.0);
    std::uniform_real_distribution<double> uphi(0.05, 2.0);
    std::uniform_real_distribution<double> uf(0.0, 1.0);
    std::uniform_real_distribution<double> urmax(1.0, 40.0);
    std::bernoulli_distribution coin(0.5);
    const OrgKind kinds[] = {
        OrgKind::SymmetricCmp,
        OrgKind::AsymmetricCmp,
        OrgKind::Heterogeneous,
        OrgKind::DynamicCmp,
    };

    for (int trial = 0; trial < 400; ++trial) {
        OrgKind kind = kinds[trial % 4];
        Organization org =
            orgOfKind(kind, umu(rng), uphi(rng), coin(rng));
        // Occasional huge budgets push the grid to opts.rMax; small
        // power/bandwidth draws exercise infeasible and near-empty
        // grids.
        Budget budget{uarea(rng), trial % 7 == 0 ? 1e9 : upow(rng),
                      trial % 11 == 0 ? 1e9 : ubw(rng)};
        OptimizerOptions opts;
        opts.alpha = coin(rng) ? 1.75 : 2.25;
        opts.rMax = coin(rng) ? 16.0 : urmax(rng);
        opts.continuousR = coin(rng);
        opts.objective =
            coin(rng) ? Objective::MaxSpeedup : Objective::MinEnergy;

        BatchEvaluator evaluator(org, budget, opts);
        double fractions[] = {0.0, uf(rng), uf(rng), 0.999, 1.0};
        for (double f : fractions) {
            DesignPoint want = optimizeScalar(org, f, budget, opts);
            expectBitIdentical(optimize(org, f, budget, opts), want);
            expectBitIdentical(evaluator.best(f), want);
        }
    }
}

TEST(BatchEvaluatorTest, GridPinsCapAndMatchesScalarGrid)
{
    // The grid the tables cover is exactly rCandidateGrid at the same
    // cap, fractional top candidate included.
    Budget budget{1000.0, 9.0, 1e9};
    OptimizerOptions opts;
    BatchEvaluator evaluator(symmetricCmp(), budget, opts);
    double cap = std::min(opts.rMax, serialRCap(budget, opts.alpha));
    EXPECT_EQ(evaluator.rGrid(), rCandidateGrid(cap));
    ASSERT_FALSE(evaluator.rGrid().empty());
    // The serial-power cap lands between integers: the evaluator's best
    // f = 0 design sits on exactly that fractional candidate.
    EXPECT_TRUE(bitEq(evaluator.rGrid().back(), cap));
    expectBitIdentical(evaluator.best(0.0),
                       optimizeScalar(symmetricCmp(), 0.0, budget, opts));
}

TEST(BatchEvaluatorTest, InfeasibleBudgetYieldsEmptyGridEverywhere)
{
    // P = 0.5: no r >= 1 satisfies the serial power bound.
    Budget budget{100.0, 0.5, 1e9};
    BatchEvaluator evaluator(symmetricCmp(), budget, {});
    EXPECT_EQ(evaluator.gridSize(), 0u);
    for (double f : {0.0, 0.5, 1.0}) {
        DesignPoint dp = evaluator.best(f);
        EXPECT_FALSE(dp.feasible);
        expectBitIdentical(dp,
                           optimizeScalar(symmetricCmp(), f, budget, {}));
    }
}

TEST(BatchEvaluatorTest, EvaluateAllMatchesScalarEnumeration)
{
    const wl::Workload w = wl::Workload::mmm();
    const std::vector<itrs::NodeParams> &nodes = itrs::nodeTable();
    for (std::size_t ni : {std::size_t{0}, nodes.size() - 1}) {
        for (double f : {0.0, 0.5, 0.99, 1.0}) {
            auto batch = enumerateDesigns(w, f, nodes[ni]);
            auto scalar = enumerateDesignsScalar(w, f, nodes[ni]);
            ASSERT_EQ(batch.size(), scalar.size())
                << "node=" << ni << " f=" << f;
            for (std::size_t i = 0; i < batch.size(); ++i) {
                EXPECT_EQ(batch[i].orgName, scalar[i].orgName);
                EXPECT_EQ(batch[i].paperIndex, scalar[i].paperIndex);
                expectBitIdentical(batch[i].design, scalar[i].design);
                EXPECT_TRUE(bitEq(batch[i].energyNormalized,
                                  scalar[i].energyNormalized));
            }
        }
    }
}

TEST(BatchEvaluatorTest, ReassignRecyclesTablesAcrossTriples)
{
    // One evaluator serving several triples in sequence (the query and
    // sweep paths) must forget the previous assignment completely.
    BatchEvaluator evaluator;
    Budget big{400.0, 1e9, 1e9};
    Budget tight{30.0, 6.0, 9.0};
    Organization ucore = orgOfKind(OrgKind::Heterogeneous, 12.0, 0.5,
                                   false);
    struct Triple
    {
        Organization org;
        Budget budget;
    } triples[] = {
        {symmetricCmp(), big},
        {ucore, tight},
        {asymmetricCmp(), tight},
        {dynamicCmp(), big},
        {symmetricCmp(), tight},
    };
    for (const Triple &t : triples) {
        evaluator.assign(t.org, t.budget, {});
        for (double f : {0.0, 0.7, 1.0})
            expectBitIdentical(evaluator.best(f),
                               optimizeScalar(t.org, f, t.budget, {}));
    }
}

TEST(BatchKernelTest, SimdPassMatchesScalarPassWordForWord)
{
    if (!batchSimdCompiledIn())
        GTEST_SKIP() << "SIMD pass not compiled in";
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> usqrt(1.0, 8.0);
    std::uniform_real_distribution<double> uperf(1e-6, 1e3);
    std::bernoulli_distribution feasible(0.8);
    // Lengths straddle every lane-tail shape.
    for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u, 17u, 63u}) {
        std::vector<double> sqrt_r(n), par_perf(n), feas(n);
        std::vector<double> scalar_val(n), simd_val(n);
        for (std::size_t i = 0; i < n; ++i) {
            sqrt_r[i] = usqrt(rng);
            par_perf[i] = uperf(rng);
            feas[i] = feasible(rng) ? 1.0 : 0.0;
        }
        for (double f : {1e-9, 0.5, 0.999, 1.0}) {
            detail::speedupValuePassScalar(sqrt_r.data(),
                                           par_perf.data(), feas.data(),
                                           f, scalar_val.data(), n);
            detail::speedupValuePassSimd(sqrt_r.data(), par_perf.data(),
                                         feas.data(), f,
                                         simd_val.data(), n);
            EXPECT_EQ(std::memcmp(scalar_val.data(), simd_val.data(),
                                  n * sizeof(double)),
                      0)
                << "n=" << n << " f=" << f;
        }
    }
}

TEST(BatchKernelTest, ForcedKernelsAgreeOnFullOptimization)
{
    if (!batchSimdCompiledIn())
        GTEST_SKIP() << "SIMD pass not compiled in";
    Budget budget{200.0, 40.0, 60.0};
    Organization ucore = orgOfKind(OrgKind::Heterogeneous, 8.0, 0.7,
                                   false);
    const Organization orgs[] = {symmetricCmp(), asymmetricCmp(), ucore};
    const BatchKernel scalar_kernel = BatchKernel::Scalar;
    const BatchKernel simd_kernel = BatchKernel::Simd;
    for (const Organization &org : orgs) {
        for (double f : {0.3, 0.9, 0.999}) {
            detail::forceBatchKernelForTest(&scalar_kernel);
            DesignPoint via_scalar = optimize(org, f, budget);
            detail::forceBatchKernelForTest(&simd_kernel);
            DesignPoint via_simd = optimize(org, f, budget);
            detail::forceBatchKernelForTest(nullptr);
            expectBitIdentical(via_simd, via_scalar);
        }
    }
}

TEST(BatchKernelTest, DispatchResolvesToARealKernel)
{
    BatchKernel k = batchKernelInUse();
    EXPECT_TRUE(k == BatchKernel::Scalar || k == BatchKernel::Simd);
    if (!batchSimdCompiledIn()) {
        EXPECT_EQ(k, BatchKernel::Scalar);
    }
}

TEST(BatchEvaluatorDeathTest, RejectsBadFraction)
{
    BatchEvaluator evaluator(symmetricCmp(), Budget{10.0, 10.0, 10.0},
                             {});
    EXPECT_DEATH(evaluator.best(1.5), "outside");
}

} // namespace
} // namespace core
} // namespace hcm
