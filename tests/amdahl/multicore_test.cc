/** @file Tests for the Hill-Marty speedup family and the U-core
 *  extension. */

#include <cmath>

#include <gtest/gtest.h>

#include "amdahl/multicore.hh"
#include "amdahl/pollack.hh"

namespace hcm {
namespace model {
namespace {

TEST(MulticoreTest, SymmetricWithUnitCoresIsAmdahl)
{
    // r = 1: n BCE cores, the classic Amdahl multicore
    // 1 / (f / n + (1 - f)).
    for (double f : {0.0, 0.5, 0.9, 0.99})
        EXPECT_NEAR(speedupSymmetric(f, 64.0, 1.0),
                    1.0 / (f / 64.0 + (1.0 - f)), 1e-12);
}

TEST(MulticoreTest, SymmetricHillMartyFigures)
{
    // Hill & Marty's worked example: n=256, f=0.999.
    // Optimal symmetric r is small; spot-check two points.
    double s1 = speedupSymmetric(0.999, 256.0, 1.0);
    double s16 = speedupSymmetric(0.999, 256.0, 16.0);
    EXPECT_NEAR(s1, 203.98, 0.5);
    EXPECT_GT(s16, 60.0);
    EXPECT_LT(s16, 90.0);
}

TEST(MulticoreTest, SerialOnlyReducesToPollack)
{
    for (double r : {1.0, 4.0, 9.0}) {
        EXPECT_NEAR(speedupSymmetric(0.0, 16.0, r), perfSeq(r), 1e-12);
        EXPECT_NEAR(speedupAsymmetric(0.0, 16.0, r), perfSeq(r), 1e-12);
    }
}

TEST(MulticoreTest, FullyParallelLimits)
{
    // f = 1: symmetric = (n/r) sqrt(r); offload = n - r; het = mu (n-r).
    EXPECT_NEAR(speedupSymmetric(1.0, 64.0, 4.0), 32.0, 1e-12);
    EXPECT_NEAR(speedupAsymmetricOffload(1.0, 64.0, 4.0), 60.0, 1e-12);
    EXPECT_NEAR(speedupHeterogeneous(1.0, 64.0, 4.0, 10.0), 600.0, 1e-12);
    EXPECT_NEAR(speedupDynamic(1.0, 64.0), 64.0, 1e-12);
}

TEST(MulticoreTest, AsymmetricBeatsSymmetricAtHighParallelism)
{
    // Hill-Marty's core result: one big core + many small beats
    // same-sized big cores everywhere once f is high and r > 1.
    double f = 0.99, n = 256.0, r = 16.0;
    EXPECT_GT(speedupAsymmetric(f, n, r), speedupSymmetric(f, n, r));
}

TEST(MulticoreTest, AsymmetricExceedsOffloadByTheBigCore)
{
    // The non-offload variant also uses the sqrt(r) core in parallel.
    double f = 0.9, n = 64.0, r = 9.0;
    EXPECT_GT(speedupAsymmetric(f, n, r),
              speedupAsymmetricOffload(f, n, r));
    // ... but by no more than its perf contribution.
    double gap = 1.0 / speedupAsymmetricOffload(f, n, r) -
                 1.0 / speedupAsymmetric(f, n, r);
    EXPECT_GT(gap, 0.0);
    EXPECT_LT(gap, f / (n - r));
}

TEST(MulticoreTest, DynamicDominatesEverything)
{
    for (double f : {0.5, 0.9, 0.999}) {
        for (double r : {1.0, 4.0, 16.0}) {
            double dyn = speedupDynamic(f, 256.0);
            EXPECT_GE(dyn, speedupSymmetric(f, 256.0, r) - 1e-9);
            EXPECT_GE(dyn, speedupAsymmetric(f, 256.0, r) - 1e-9);
        }
    }
}

TEST(MulticoreTest, HeterogeneousWithUnitMuIsOffload)
{
    for (double f : {0.1, 0.9})
        EXPECT_NEAR(speedupHeterogeneous(f, 64.0, 4.0, 1.0),
                    speedupAsymmetricOffload(f, 64.0, 4.0), 1e-12);
}

TEST(MulticoreTest, PaperSection3Identity)
{
    // Speedup_het = 1 / ((1-f)/sqrt(r) + f/(mu (n-r))) verbatim.
    double f = 0.97, n = 41.0, r = 5.0, mu = 27.4;
    double expect = 1.0 / ((1.0 - f) / std::sqrt(r) +
                           f / (mu * (n - r)));
    EXPECT_NEAR(speedupHeterogeneous(f, n, r, mu), expect, 1e-12);
}

TEST(MulticoreDeathTest, GuardsInvalidDesigns)
{
    EXPECT_DEATH(speedupSymmetric(0.5, 4.0, 8.0), "n");
    EXPECT_DEATH(speedupAsymmetricOffload(0.5, 4.0, 4.0), "n > r");
    EXPECT_DEATH(speedupHeterogeneous(0.5, 4.0, 4.0, 2.0), "n > r");
    EXPECT_DEATH(speedupHeterogeneous(0.5, 8.0, 4.0, 0.0), "mu");
    EXPECT_DEATH(speedupDynamic(0.5, 0.0), "positive");
}

/** Property sweep: all speedups are monotone in n and in mu. */
class MonotoneInResources : public ::testing::TestWithParam<double>
{
};

TEST_P(MonotoneInResources, MoreResourcesNeverHurt)
{
    double f = GetParam();
    double prev_sym = 0, prev_asym = 0, prev_het = 0, prev_dyn = 0;
    for (double n = 8.0; n <= 512.0; n *= 2.0) {
        double sym = speedupSymmetric(f, n, 4.0);
        double asym = speedupAsymmetricOffload(f, n, 4.0);
        double het = speedupHeterogeneous(f, n, 4.0, 3.0);
        double dyn = speedupDynamic(f, n);
        EXPECT_GE(sym, prev_sym);
        EXPECT_GE(asym, prev_asym);
        EXPECT_GE(het, prev_het);
        EXPECT_GE(dyn, prev_dyn);
        prev_sym = sym;
        prev_asym = asym;
        prev_het = het;
        prev_dyn = dyn;
    }
}

TEST_P(MonotoneInResources, FasterUCoresNeverHurt)
{
    double f = GetParam();
    double prev = 0.0;
    for (double mu = 0.25; mu <= 1024.0; mu *= 2.0) {
        double s = speedupHeterogeneous(f, 64.0, 4.0, mu);
        EXPECT_GE(s, prev);
        // Amdahl's asymptote 1 / (1 - f) over the serial core.
        EXPECT_LE(s, perfSeq(4.0) / (1.0 - f) + 1e-9);
        prev = s;
    }
}

INSTANTIATE_TEST_SUITE_P(Fractions, MonotoneInResources,
                         ::testing::Values(0.5, 0.9, 0.99, 0.999));

} // namespace
} // namespace model
} // namespace hcm
