/**
 * @file
 * Single-precision dense matrix-matrix multiplication kernels
 * (C = A * B, row-major). The paper measures MKL/CUBLAS/hand-written RTL;
 * this repo carries a naive reference and a cache-blocked kernel so the
 * host measurement harness has realistic "untuned vs tuned" points.
 */

#ifndef HCM_WORKLOADS_MMM_HH
#define HCM_WORKLOADS_MMM_HH

#include <cstddef>

namespace hcm {
namespace wl {

/** Flops in an (m x k) * (k x n) multiply: 2 m n k. */
double gemmFlops(std::size_t m, std::size_t n, std::size_t k);

/**
 * Reference kernel: textbook i-j-k triple loop.
 * @p a is m x k, @p b is k x n, @p c is m x n; all row-major, c overwritten.
 */
void gemmNaive(const float *a, const float *b, float *c, std::size_t m,
               std::size_t n, std::size_t k);

/**
 * Cache-blocked kernel inside @p block sized tiles — the shape the
 * paper's compulsory-bandwidth footnote assumes (blocked at N = 128).
 * Each tile runs an i-k-j micro-kernel: its unit-stride inner loop over
 * both b and c lets the compiler vectorize the accumulation.
 */
void gemmBlocked(const float *a, const float *b, float *c, std::size_t m,
                 std::size_t n, std::size_t k, std::size_t block = 64);

} // namespace wl
} // namespace hcm

#endif // HCM_WORKLOADS_MMM_HH
