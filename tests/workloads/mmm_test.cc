/** @file Unit and property tests for the MMM kernels. */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "workloads/generator.hh"
#include "workloads/mmm.hh"

namespace hcm {
namespace wl {
namespace {

/** C = A * B for square n x n matrices through gemmNaive. */
std::vector<float>
naive(const std::vector<float> &a, const std::vector<float> &b,
      std::size_t n)
{
    std::vector<float> c(n * n);
    gemmNaive(a.data(), b.data(), c.data(), n, n, n);
    return c;
}

/** C = A * B for square n x n matrices through gemmBlocked. */
std::vector<float>
blocked(const std::vector<float> &a, const std::vector<float> &b,
        std::size_t n, std::size_t block)
{
    std::vector<float> c(n * n);
    gemmBlocked(a.data(), b.data(), c.data(), n, n, n, block);
    return c;
}

/** Max absolute element difference between equal-length vectors. */
float
maxAbsDiff(const std::vector<float> &a, const std::vector<float> &b)
{
    EXPECT_EQ(a.size(), b.size());
    float m = 0.0f;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

TEST(MmmTest, FlopsAccounting)
{
    EXPECT_DOUBLE_EQ(gemmFlops(2, 3, 4), 48.0);
    EXPECT_DOUBLE_EQ(gemmFlops(128, 128, 128), 2.0 * 128 * 128 * 128);
}

TEST(MmmTest, IdentityTimesMatrixIsMatrix)
{
    constexpr std::size_t n = 8;
    Rng rng(1);
    std::vector<float> a(n * n, 0.0f);
    for (std::size_t i = 0; i < n; ++i)
        a[i * n + i] = 1.0f;
    std::vector<float> b = randomMatrix(n, rng);
    EXPECT_EQ(maxAbsDiff(naive(a, b, n), b), 0.0f);
    EXPECT_EQ(maxAbsDiff(blocked(a, b, n, 3), b), 0.0f);
}

TEST(MmmTest, KnownSmallProduct)
{
    // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
    std::vector<float> a = {1, 2, 3, 4};
    std::vector<float> b = {5, 6, 7, 8};
    std::vector<float> c = naive(a, b, 2);
    EXPECT_FLOAT_EQ(c[0], 19.0f);
    EXPECT_FLOAT_EQ(c[1], 22.0f);
    EXPECT_FLOAT_EQ(c[2], 43.0f);
    EXPECT_FLOAT_EQ(c[3], 50.0f);
}

TEST(MmmTest, RectangularShapesAgree)
{
    constexpr std::size_t m = 5, n = 7, k = 3;
    Rng rng(2);
    std::vector<float> a = randomVector(m * k, rng);
    std::vector<float> b = randomVector(k * n, rng);
    std::vector<float> c_naive(m * n), c_blocked(m * n);
    gemmNaive(a.data(), b.data(), c_naive.data(), m, n, k);
    gemmBlocked(a.data(), b.data(), c_blocked.data(), m, n, k, 2);
    for (std::size_t i = 0; i < m * n; ++i)
        EXPECT_NEAR(c_blocked[i], c_naive[i], 1e-5f);
}

/** Property sweep: blocked kernel matches naive for many (n, block),
 *  including blocks that do not divide n. */
struct BlockCase
{
    std::size_t n;
    std::size_t block;
};

class MmmBlocked : public ::testing::TestWithParam<BlockCase>
{
};

TEST_P(MmmBlocked, MatchesNaive)
{
    auto [n, block] = GetParam();
    Rng rng(n * 131 + block);
    std::vector<float> a = randomMatrix(n, rng);
    std::vector<float> b = randomMatrix(n, rng);
    std::vector<float> ref = naive(a, b, n);
    std::vector<float> got = blocked(a, b, n, block);
    // fp32 accumulation-order differences only.
    EXPECT_LT(maxAbsDiff(ref, got),
              1e-5f * static_cast<float>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MmmBlocked,
    ::testing::Values(BlockCase{1, 1}, BlockCase{4, 2}, BlockCase{7, 3},
                      BlockCase{16, 16}, BlockCase{16, 5},
                      BlockCase{33, 8}, BlockCase{64, 16},
                      BlockCase{40, 64} /* block > n */),
    [](const ::testing::TestParamInfo<BlockCase> &info) {
        return "n" + std::to_string(info.param.n) + "_b" +
               std::to_string(info.param.block);
    });

} // namespace
} // namespace wl
} // namespace hcm
