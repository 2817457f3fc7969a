/**
 * @file
 * Simulated current-probe measurement, standing in for the paper's
 * Section 4.2 methodology: a probe samples total wall power in steady
 * state; a memory-stress microbenchmark isolates the non-compute
 * components (the idle uncore plus the FFT's traffic), which are then
 * subtracted to recover core-only power. The simulation draws from the
 * FftPowerModel ground truth plus multiplicative sampling noise, and
 * the subtraction pipeline is validated against that ground truth in
 * the tests.
 */

#ifndef HCM_DEVICES_PROBE_HH
#define HCM_DEVICES_PROBE_HH

#include <cstddef>
#include <cstdint>

#include "devices/power_model.hh"
#include "workloads/generator.hh"

namespace hcm {
namespace dev {

/** A noisy power probe attached to one device. */
class CurrentProbe
{
  public:
    /**
     * @param id device under measurement.
     * @param noise relative 1-sigma-ish amplitude of multiplicative
     *        sampling noise (uniform in [-noise, +noise]).
     * @param seed RNG seed for reproducible noise.
     */
    explicit CurrentProbe(DeviceId id, double noise = 0.01,
                          std::uint64_t seed = 0x5eedu);

    /** Total wall power while running a steady-state N-point FFT. */
    Power sampleTotal(std::size_t fft_n);

    /**
     * Total wall power while a memory microbenchmark reproduces the
     * FFT's off-chip traffic with cores otherwise idle: idle components
     * plus uncore dynamic at that traffic level.
     */
    Power sampleMemoryStress(std::size_t fft_n);

    /** Ground-truth model (for tests). */
    const FftPowerModel &model() const { return _model; }

  private:
    double noisy(double watts);

    FftPowerModel _model;
    double _noise;
    wl::Rng _rng;
};

/**
 * The Section 4.2 subtraction pipeline: estimate core-only power of an
 * FFT run by averaging repeated probe samples of (total, memory-stress)
 * and subtracting.
 */
class UncoreSubtraction
{
  public:
    explicit UncoreSubtraction(CurrentProbe &probe, int samples = 16);

    /** Estimated core-only (dynamic + leakage) power at size @p n. */
    Power estimateCorePower(std::size_t n);

  private:
    Power average(std::size_t n, Power (CurrentProbe::*sampler)(std::size_t));

    CurrentProbe &_probe;
    int _samples;
};

} // namespace dev
} // namespace hcm

#endif // HCM_DEVICES_PROBE_HH
