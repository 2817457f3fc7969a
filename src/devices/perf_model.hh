/**
 * @file
 * Per-device FFT performance model reproducing Figure 2: pseudo-GFLOP/s
 * versus input size 2^4 .. 2^20 for the five devices with FFT data.
 *
 * Curves are anchored at the measurement database's N = 64 / 1024 / 16384
 * datapoints and extended to the figure's full size range with
 * device-class edge behaviour: GPUs lose most of their throughput on tiny
 * transforms (underutilized SIMD width even when batched) and gain a
 * little on huge ones (deeper parallelism, efficient out-of-core
 * kernels); CPUs sag at both ends (loop overhead, cache spill); FPGA and
 * ASIC streaming pipelines stay comparatively flat.
 */

#ifndef HCM_DEVICES_PERF_MODEL_HH
#define HCM_DEVICES_PERF_MODEL_HH

#include <cstddef>
#include <vector>

#include "devices/device.hh"
#include "util/units.hh"

namespace hcm {
namespace dev {

/** Interpolated FFT performance curve for one device. */
class FftPerfModel
{
  public:
    /** Build the curve for @p id; panics when the device has no FFT data
     *  (the R5870, for which the paper obtained no tuned FFT). */
    explicit FftPerfModel(DeviceId id);

    /** Sustained pseudo-GFLOP/s for an N-point batched FFT. */
    Perf perfAt(std::size_t n) const;

    /** Area-normalized performance (pseudo-GFLOP/s per mm^2 at 40nm). */
    double perfPerMm2At(std::size_t n) const;

    /**
     * 40nm-normalized compute area of the N = 64 measurement. Fixed
     * for CPUs/GPUs/FPGA; the ASIC's per-design area grows with N, so
     * the area-normalized curve interpolates per-anchor values instead
     * of dividing by this.
     */
    Area area40() const { return _area40; }

    /** Figure 2's x range: every power of two from 2^4 to 2^20. */
    static std::vector<std::size_t> figureSizes();

    /**
     * The per-device size ranges Figure 3's x axes show — each platform
     * was measured over the sizes its toolchain could build/run:
     * Core i7 2^5..2^19, LX760 2^4..2^14, GTX285 2^5..2^19,
     * GTX480 2^4..2^20, ASIC 2^5..2^13.
     */
    static std::vector<std::size_t> measuredSizes(DeviceId id);

    /** Devices plotted in Figure 2 (all but the R5870). */
    static std::vector<DeviceId> figureDevices();

  private:
    Area _area40;
    std::vector<double> _log2n; ///< curve knots (log2 of size)
    std::vector<double> _perf;  ///< pseudo-GFLOP/s at each knot
    std::vector<double> _perfPerMm2; ///< per-anchor area-normalized perf
};

} // namespace dev
} // namespace hcm

#endif // HCM_DEVICES_PERF_MODEL_HH
