#include "mmm.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"

namespace hcm {
namespace wl {

double
gemmFlops(std::size_t m, std::size_t n, std::size_t k)
{
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k);
}

void
gemmNaive(const float *a, const float *b, float *c, std::size_t m,
          std::size_t n, std::size_t k)
{
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p)
                acc += a[i * k + p] * b[p * n + j];
            c[i * n + j] = acc;
        }
    }
}

void
gemmBlocked(const float *a, const float *b, float *c, std::size_t m,
            std::size_t n, std::size_t k, std::size_t block)
{
    hcm_assert(block >= 1, "block size must be positive");
    std::memset(c, 0, m * n * sizeof(float));
    for (std::size_t i0 = 0; i0 < m; i0 += block) {
        std::size_t i1 = std::min(m, i0 + block);
        for (std::size_t p0 = 0; p0 < k; p0 += block) {
            std::size_t p1 = std::min(k, p0 + block);
            for (std::size_t j0 = 0; j0 < n; j0 += block) {
                std::size_t j1 = std::min(n, j0 + block);
                // ikj micro-kernel on the (i0..i1, p0..p1, j0..j1) tile.
                for (std::size_t i = i0; i < i1; ++i) {
                    for (std::size_t p = p0; p < p1; ++p) {
                        float av = a[i * k + p];
                        const float *brow = &b[p * n];
                        float *crow = &c[i * n];
                        for (std::size_t j = j0; j < j1; ++j)
                            crow[j] += av * brow[j];
                    }
                }
            }
        }
    }
}

} // namespace wl
} // namespace hcm
