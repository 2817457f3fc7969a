/**
 * @file
 * Single-precision complex FFT kernels. The paper measures tuned FFT
 * libraries (Spiral, CUFFT); this repo carries its own implementations so
 * the measurement harness has a real compute kernel to drive:
 *
 *  - Radix2DIT:      classic iterative decimation-in-time with a
 *                    bit-reversal permutation and per-stage twiddles.
 *  - Stockham:       autosort decimation-in-frequency; no bit reversal,
 *                    better locality, needs a scratch buffer.
 *  - StockhamRadix4: the same autosort scheme with radix-4 butterflies
 *                    (34 real ops per 4-point butterfly instead of 2x10
 *                    for the radix-2 pair) and a radix-2 cleanup pass
 *                    when log2 N is odd — the classic operation-count
 *                    optimization tuned FFT libraries use.
 *
 * All three compute the unnormalized forward DFT
 *   X[k] = sum_j x[j] * exp(-2*pi*i*j*k / N)
 * to single-precision accuracy.
 */

#ifndef HCM_WORKLOADS_FFT_HH
#define HCM_WORKLOADS_FFT_HH

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hcm {
namespace wl {

using cfloat = std::complex<float>;

/**
 * A planned FFT of fixed size: twiddle factors and permutations are
 * precomputed at construction (the "plan" idiom of FFTW/Spiral).
 *
 * Plans are immutable after construction and safe to share across threads
 * for Radix2DIT; the Stockham variant keeps per-plan scratch and is not
 * thread-safe (clone one plan per thread instead).
 */
class FftPlan
{
  public:
    enum class Algorithm {
        Radix2DIT,
        Stockham,
        StockhamRadix4,
    };

    /** Plan an @p n point transform; @p n must be a power of two >= 2. */
    explicit FftPlan(std::size_t n,
                     Algorithm alg = Algorithm::Radix2DIT);

    /** In-place forward transform of @p data (length size()). */
    void forward(cfloat *data) const;

    std::size_t size() const { return _n; }

    /** log2(size()). */
    unsigned stages() const { return _log2n; }

    /** Pseudo-FLOPs per transform per the paper: 5 N log2 N. */
    double pseudoFlops() const;

  private:
    void radix2(cfloat *data) const;
    void stockham(cfloat *data) const;
    void stockham4(cfloat *data) const;
    void stockham2Pass(cfloat *&x, cfloat *&y, std::size_t l,
                       std::size_t m) const;

    std::size_t _n;
    unsigned _log2n;
    Algorithm _alg;
    /** Twiddles for stage s live at [_stageOffset[s], + 2^s). */
    std::vector<cfloat> _twiddles;
    std::vector<std::size_t> _stageOffset;
    std::vector<std::uint32_t> _bitrev;
    mutable std::vector<cfloat> _scratch;
};

/**
 * FFT of real input (length n, a power of two >= 4) via the half-size
 * complex-packing trick: returns the n/2 + 1 non-redundant spectrum
 * bins X[0..n/2]; the remaining bins follow from conjugate symmetry
 * X[n-k] = conj(X[k]).
 */
std::vector<cfloat> realFft(const std::vector<float> &input);

} // namespace wl
} // namespace hcm

#endif // HCM_WORKLOADS_FFT_HH
