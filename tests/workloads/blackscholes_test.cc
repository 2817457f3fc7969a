/** @file Unit and property tests for the Black-Scholes kernel. */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "workloads/blackscholes.hh"
#include "workloads/generator.hh"

namespace hcm {
namespace wl {
namespace {

TEST(BlackScholesTest, NormCdfKnownValues)
{
    EXPECT_NEAR(normCdfErf(0.0f), 0.5f, 1e-7f);
    EXPECT_NEAR(normCdfErf(1.0f), 0.8413447f, 1e-6f);
    EXPECT_NEAR(normCdfErf(-1.0f), 0.1586553f, 1e-6f);
    EXPECT_NEAR(normCdfErf(3.0f), 0.9986501f, 1e-6f);
}

TEST(BlackScholesTest, PolynomialCndfTracksErf)
{
    // A&S 26.2.17 is accurate to ~7.5e-8 in double; fp32 rounding
    // dominates here.
    for (float x = -4.0f; x <= 4.0f; x += 0.125f)
        EXPECT_NEAR(normCdfPoly(x), normCdfErf(x), 2e-5f) << "x=" << x;
}

TEST(BlackScholesTest, CndfIsMonotoneAndSymmetric)
{
    float prev = 0.0f;
    for (float x = -5.0f; x <= 5.0f; x += 0.25f) {
        float v = normCdfPoly(x);
        EXPECT_GE(v, prev);
        EXPECT_NEAR(normCdfPoly(-x), 1.0f - v, 2e-6f);
        prev = v;
    }
}

TEST(BlackScholesTest, KnownCallPrice)
{
    // Hull's textbook example: S=42, K=40, r=10%, sigma=20%, T=0.5
    // -> call = 4.76, put = 0.81.
    Option call{42.0f, 40.0f, 0.10f, 0.20f, 0.5f, OptionType::Call};
    Option put = call;
    put.type = OptionType::Put;
    EXPECT_NEAR(priceOption(call), 4.759f, 5e-3f);
    EXPECT_NEAR(priceOption(put), 0.808f, 5e-3f);
}

TEST(BlackScholesTest, DeepInTheMoneyCallApproachesForward)
{
    Option opt{100.0f, 1.0f, 0.05f, 0.2f, 1.0f, OptionType::Call};
    float expect = 100.0f - 1.0f * std::exp(-0.05f);
    EXPECT_NEAR(priceOption(opt), expect, 1e-2f);
}

TEST(BlackScholesTest, BatchMatchesScalar)
{
    Rng rng(7);
    auto options = randomOptions(64, rng);
    std::vector<float> prices(options.size());
    priceBatch(options.data(), prices.data(), options.size());
    for (std::size_t i = 0; i < options.size(); ++i)
        EXPECT_FLOAT_EQ(prices[i], priceOption(options[i]));
}

TEST(BlackScholesDeathTest, RejectsNonPositiveInputs)
{
    Option bad{0.0f, 40.0f, 0.1f, 0.2f, 0.5f, OptionType::Call};
    EXPECT_DEATH(priceOption(bad), "positive");
}

/** Property sweep: put-call parity C - P = S - K e^{-rT} holds across
 *  random market states for both CNDF variants. */
class PutCallParity : public ::testing::TestWithParam<CndfMethod>
{
};

TEST_P(PutCallParity, Holds)
{
    CndfMethod method = GetParam();
    Rng rng(method == CndfMethod::Erf ? 11 : 13);
    auto options = randomOptions(200, rng);
    for (Option &o : options) {
        Option call = o, put = o;
        call.type = OptionType::Call;
        put.type = OptionType::Put;
        float lhs = priceOption(call, method) - priceOption(put, method);
        float rhs = o.spot - o.strike * std::exp(-o.rate * o.expiry);
        EXPECT_NEAR(lhs, rhs, 2e-3f * o.spot)
            << "S=" << o.spot << " K=" << o.strike << " T=" << o.expiry;
    }
}

INSTANTIATE_TEST_SUITE_P(Methods, PutCallParity,
                         ::testing::Values(CndfMethod::Erf,
                                           CndfMethod::Polynomial),
                         [](const auto &info) {
                             return info.param == CndfMethod::Erf
                                        ? "erf"
                                        : "polynomial";
                         });

/** Prices are monotone in spot (calls up, puts down) and bounded. */
TEST(BlackScholesTest, MonotoneInSpot)
{
    float prev_call = -1.0f, prev_put = 1e9f;
    for (float s = 20.0f; s <= 180.0f; s += 10.0f) {
        Option call{s, 100.0f, 0.05f, 0.3f, 1.0f, OptionType::Call};
        Option put = call;
        put.type = OptionType::Put;
        float c = priceOption(call), p = priceOption(put);
        EXPECT_GT(c, prev_call);
        EXPECT_LT(p, prev_put);
        EXPECT_GE(c, 0.0f);
        EXPECT_GE(p, -1e-4f);
        EXPECT_LE(c, s); // call never worth more than the stock
        prev_call = c;
        prev_put = p;
    }
}

} // namespace
} // namespace wl
} // namespace hcm
