/**
 * @file
 * Deterministic input generators for the kernels. All generators are
 * seeded xorshift-based so tests and benches are reproducible without
 * depending on std::random_device or platform RNG differences.
 */

#ifndef HCM_WORKLOADS_GENERATOR_HH
#define HCM_WORKLOADS_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "workloads/blackscholes.hh"
#include "workloads/fft.hh"

namespace hcm {
namespace wl {

/** xorshift64* PRNG: tiny, fast, and plenty for test inputs. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform float in [lo, hi). */
    float uniformF(float lo, float hi);

  private:
    std::uint64_t _state;
};

/** @p n random floats in [-1, 1). */
std::vector<float> randomVector(std::size_t n, Rng &rng);

/** Row-major n x n matrix of floats in [-1, 1). */
std::vector<float> randomMatrix(std::size_t n, Rng &rng);

/** @p n random complex samples with coordinates in [-1, 1). */
std::vector<cfloat> randomSignal(std::size_t n, Rng &rng);

/**
 * @p count options with market-plausible parameters (spot 5..200,
 * strike within +-40% of spot, rate 1..10%, vol 5..90%, expiry
 * 0.05..2 years, alternating calls and puts).
 */
std::vector<Option> randomOptions(std::size_t count, Rng &rng);

} // namespace wl
} // namespace hcm

#endif // HCM_WORKLOADS_GENERATOR_HH
