/** @file Unit and property tests for the FFT kernels. */

#include <cmath>

#include <gtest/gtest.h>

#include "util/math.hh"
#include "workloads/fft.hh"
#include "workloads/generator.hh"

namespace hcm {
namespace wl {
namespace {

/** O(N^2) reference DFT, accumulated in double precision. */
std::vector<cfloat>
naiveDft(const std::vector<cfloat> &input)
{
    std::size_t n = input.size();
    std::vector<cfloat> out(n);
    for (std::size_t k = 0; k < n; ++k) {
        std::complex<double> acc(0.0, 0.0);
        for (std::size_t j = 0; j < n; ++j) {
            double ang = -2.0 * M_PI * static_cast<double>(j) *
                         static_cast<double>(k) / static_cast<double>(n);
            acc += std::complex<double>(input[j]) *
                   std::complex<double>(std::cos(ang), std::sin(ang));
        }
        out[k] = cfloat(static_cast<float>(acc.real()),
                        static_cast<float>(acc.imag()));
    }
    return out;
}

/** Root-mean-square error between two equal-length complex vectors. */
double
rmsError(const std::vector<cfloat> &a, const std::vector<cfloat> &b)
{
    EXPECT_EQ(a.size(), b.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
        acc += std::norm(std::complex<double>(a[i]) -
                         std::complex<double>(b[i]));
    return std::sqrt(acc / static_cast<double>(a.size()));
}

/** Max tolerable RMS error for single-precision transforms of size n. */
double
tolFor(std::size_t n)
{
    // Error grows ~sqrt(log n) for fp32 FFTs; this is a generous bound.
    return 2e-4 * std::sqrt(static_cast<double>(ilog2(n)));
}

TEST(FftTest, ImpulseTransformsToConstant)
{
    FftPlan plan(8);
    std::vector<cfloat> x(8, cfloat(0, 0));
    x[0] = cfloat(1, 0);
    plan.forward(x.data());
    for (const cfloat &v : x) {
        EXPECT_NEAR(v.real(), 1.0f, 1e-6f);
        EXPECT_NEAR(v.imag(), 0.0f, 1e-6f);
    }
}

TEST(FftTest, ConstantTransformsToImpulse)
{
    FftPlan plan(16);
    std::vector<cfloat> x(16, cfloat(1, 0));
    plan.forward(x.data());
    EXPECT_NEAR(x[0].real(), 16.0f, 1e-4f);
    for (std::size_t i = 1; i < 16; ++i)
        EXPECT_NEAR(std::abs(x[i]), 0.0f, 1e-4f);
}

TEST(FftTest, SingleToneLandsInOneBin)
{
    constexpr std::size_t n = 64;
    constexpr std::size_t bin = 5;
    FftPlan plan(n);
    std::vector<cfloat> x(n);
    for (std::size_t j = 0; j < n; ++j) {
        double ang = 2.0 * M_PI * bin * j / n;
        x[j] = cfloat(std::cos(ang), std::sin(ang));
    }
    plan.forward(x.data());
    EXPECT_NEAR(std::abs(x[bin]), static_cast<float>(n), 1e-3f);
    for (std::size_t k = 0; k < n; ++k) {
        if (k != bin) {
            EXPECT_NEAR(std::abs(x[k]), 0.0f, 1e-3f) << "bin " << k;
        }
    }
}

TEST(FftTest, MinimumSizeTwo)
{
    FftPlan plan(2);
    std::vector<cfloat> x = {cfloat(3, 0), cfloat(1, 0)};
    plan.forward(x.data());
    EXPECT_NEAR(x[0].real(), 4.0f, 1e-6f);
    EXPECT_NEAR(x[1].real(), 2.0f, 1e-6f);
}

TEST(FftTest, PseudoFlopsFollowPaperConvention)
{
    FftPlan plan(1024);
    EXPECT_DOUBLE_EQ(plan.pseudoFlops(), 5.0 * 1024 * 10);
    EXPECT_EQ(plan.stages(), 10u);
}

TEST(FftDeathTest, RejectsNonPowerOfTwo)
{
    EXPECT_DEATH(FftPlan(12), "power of two");
    EXPECT_DEATH(FftPlan(0), "power of two");
    EXPECT_DEATH(FftPlan(1), "power of two");
}

/** Property sweep over sizes and all algorithms: match the naive DFT
 *  and invert back to the input. */
struct FftCase
{
    std::size_t n;
    FftPlan::Algorithm alg;
};

class FftAlgorithms : public ::testing::TestWithParam<FftCase>
{
};

TEST_P(FftAlgorithms, MatchesNaiveDft)
{
    auto [n, alg] = GetParam();
    Rng rng(n * 7919 + static_cast<int>(alg));
    std::vector<cfloat> input = randomSignal(n, rng);

    std::vector<cfloat> fast = input;
    FftPlan plan(n, alg);
    plan.forward(fast.data());

    std::vector<cfloat> slow = naiveDft(input);
    double scale = std::sqrt(static_cast<double>(n));
    EXPECT_LT(rmsError(fast, slow) / scale, tolFor(n)) << "n=" << n;
}

TEST_P(FftAlgorithms, InverseRecoversInput)
{
    auto [n, alg] = GetParam();
    Rng rng(n * 104729 + static_cast<int>(alg));
    std::vector<cfloat> input = randomSignal(n, rng);

    // The inverse through the forward transform:
    // x = conj(F(conj(F(x)))) / N.
    std::vector<cfloat> data = input;
    FftPlan plan(n, alg);
    plan.forward(data.data());
    for (cfloat &v : data)
        v = std::conj(v);
    plan.forward(data.data());
    for (cfloat &v : data)
        v = std::conj(v) / static_cast<float>(n);
    EXPECT_LT(rmsError(data, input), tolFor(n)) << "n=" << n;
}

TEST_P(FftAlgorithms, ParsevalEnergyConserved)
{
    auto [n, alg] = GetParam();
    Rng rng(n * 31 + static_cast<int>(alg));
    std::vector<cfloat> input = randomSignal(n, rng);

    double time_energy = 0.0;
    for (const cfloat &v : input)
        time_energy += std::norm(std::complex<double>(v));

    std::vector<cfloat> freq = input;
    FftPlan plan(n, alg);
    plan.forward(freq.data());
    double freq_energy = 0.0;
    for (const cfloat &v : freq)
        freq_energy += std::norm(std::complex<double>(v));

    EXPECT_NEAR(freq_energy / (n * time_energy), 1.0, 1e-4) << "n=" << n;
}

std::vector<FftCase>
allCases()
{
    std::vector<FftCase> cases;
    for (std::size_t n : {2u, 4u, 8u, 16u, 64u, 128u, 512u, 1024u}) {
        cases.push_back({n, FftPlan::Algorithm::Radix2DIT});
        cases.push_back({n, FftPlan::Algorithm::Stockham});
        cases.push_back({n, FftPlan::Algorithm::StockhamRadix4});
    }
    return cases;
}

std::string
algName(FftPlan::Algorithm alg)
{
    switch (alg) {
      case FftPlan::Algorithm::Radix2DIT:
        return "radix2";
      case FftPlan::Algorithm::Stockham:
        return "stockham";
      case FftPlan::Algorithm::StockhamRadix4:
        return "stockham4";
    }
    return "unknown";
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlgorithms, FftAlgorithms, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<FftCase> &info) {
        return algName(info.param.alg) + "_" +
               std::to_string(info.param.n);
    });

/** The two algorithms agree with each other on larger sizes where the
 *  naive DFT is too slow to be the reference. */
TEST(FftTest, AlgorithmsAgreeAtSize16384)
{
    constexpr std::size_t n = 16384;
    Rng rng(42);
    std::vector<cfloat> input = randomSignal(n, rng);
    std::vector<cfloat> a = input, b = input, c = input;
    FftPlan(n, FftPlan::Algorithm::Radix2DIT).forward(a.data());
    FftPlan(n, FftPlan::Algorithm::Stockham).forward(b.data());
    FftPlan(n, FftPlan::Algorithm::StockhamRadix4).forward(c.data());
    double scale = std::sqrt(static_cast<double>(n));
    EXPECT_LT(rmsError(a, b) / scale, tolFor(n));
    EXPECT_LT(rmsError(a, c) / scale, tolFor(n));
}

TEST(FftTest, RealFftMatchesComplexReference)
{
    constexpr std::size_t n = 256;
    Rng rng(9);
    std::vector<float> signal(n);
    for (float &v : signal)
        v = rng.uniformF(-1.0f, 1.0f);

    auto spectrum = realFft(signal);
    ASSERT_EQ(spectrum.size(), n / 2 + 1);

    std::vector<cfloat> as_complex(n);
    for (std::size_t i = 0; i < n; ++i)
        as_complex[i] = cfloat(signal[i], 0.0f);
    auto reference = naiveDft(as_complex);
    for (std::size_t k = 0; k <= n / 2; ++k) {
        EXPECT_NEAR(spectrum[k].real(), reference[k].real(), 2e-3f)
            << "bin " << k;
        EXPECT_NEAR(spectrum[k].imag(), reference[k].imag(), 2e-3f)
            << "bin " << k;
    }
}

TEST(FftTest, RealFftDcAndNyquistAreReal)
{
    Rng rng(10);
    std::vector<float> signal(128);
    for (float &v : signal)
        v = rng.uniformF(-1.0f, 1.0f);
    auto spectrum = realFft(signal);
    EXPECT_NEAR(spectrum.front().imag(), 0.0f, 1e-4f);
    EXPECT_NEAR(spectrum.back().imag(), 0.0f, 1e-4f);
    // DC bin equals the sum of the samples.
    float sum = 0.0f;
    for (float v : signal)
        sum += v;
    EXPECT_NEAR(spectrum.front().real(), sum, 1e-3f);
}

TEST(FftDeathTest, RealFftRejectsTinyOrRaggedSizes)
{
    EXPECT_DEATH(realFft(std::vector<float>(2)), "power of two");
    EXPECT_DEATH(realFft(std::vector<float>(12)), "power of two");
}

} // namespace
} // namespace wl
} // namespace hcm
