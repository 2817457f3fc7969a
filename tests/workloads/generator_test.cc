/** @file Tests for the deterministic input generators. */

#include <gtest/gtest.h>

#include "workloads/generator.hh"

namespace hcm {
namespace wl {
namespace {

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(RngTest, ZeroSeedIsUsable)
{
    Rng r(0);
    EXPECT_NE(r.next(), 0u);
}

TEST(RngTest, UniformStaysInRange)
{
    Rng r(99);
    for (int i = 0; i < 1000; ++i) {
        double v = r.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        double w = r.uniform(-3.0, 7.0);
        EXPECT_GE(w, -3.0);
        EXPECT_LT(w, 7.0);
    }
}

TEST(RngTest, UniformCoversTheRange)
{
    Rng r(5);
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < 1000; ++i) {
        double v = r.uniform();
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_LT(lo, 0.05);
    EXPECT_GT(hi, 0.95);
}

TEST(GeneratorTest, RandomMatrixDimensions)
{
    Rng rng(3);
    auto m = randomMatrix(5, rng);
    EXPECT_EQ(m.size(), 25u);
    for (float v : m) {
        EXPECT_GE(v, -1.0f);
        EXPECT_LT(v, 1.0f);
    }
}

TEST(GeneratorTest, RandomSignalBounds)
{
    Rng rng(4);
    auto s = randomSignal(64, rng);
    EXPECT_EQ(s.size(), 64u);
    for (const cfloat &v : s) {
        EXPECT_LE(std::abs(v.real()), 1.0f);
        EXPECT_LE(std::abs(v.imag()), 1.0f);
    }
}

TEST(GeneratorTest, RandomOptionsAreMarketPlausible)
{
    Rng rng(5);
    auto opts = randomOptions(100, rng);
    EXPECT_EQ(opts.size(), 100u);
    int calls = 0;
    for (const Option &o : opts) {
        EXPECT_GT(o.spot, 0.0f);
        EXPECT_GT(o.strike, 0.0f);
        EXPECT_GE(o.strike, o.spot * 0.6f - 1e-3f);
        EXPECT_LE(o.strike, o.spot * 1.4f + 1e-3f);
        EXPECT_GT(o.volatility, 0.0f);
        EXPECT_GT(o.expiry, 0.0f);
        if (o.type == OptionType::Call)
            ++calls;
    }
    EXPECT_EQ(calls, 50); // alternating
}

} // namespace
} // namespace wl
} // namespace hcm
