/**
 * @file
 * Off-chip bandwidth model for FFT reproducing Figure 4 (bottom):
 * compulsory traffic (16 N bytes per N-point transform) versus the
 * traffic a device actually moves once the working set spills out of
 * on-chip memory and the library switches to a multi-pass out-of-core
 * algorithm. On the GTX285 the paper measured compulsory bandwidth up to
 * N = 2^12, then elevated-but-below-peak traffic — the device stays
 * compute-bound because arithmetic intensity (0.3125 log2 N) keeps
 * growing.
 */

#ifndef HCM_DEVICES_BANDWIDTH_MODEL_HH
#define HCM_DEVICES_BANDWIDTH_MODEL_HH

#include <cstddef>

#include "devices/device.hh"
#include "devices/perf_model.hh"
#include "util/units.hh"

namespace hcm {
namespace dev {

/** FFT off-chip traffic model for one device. */
class FftBandwidthModel
{
  public:
    /**
     * @param id device (must have FFT measurements).
     * @param onchip_points override of the on-chip working-set capacity
     *        in FFT points; 0 selects the per-device default.
     */
    explicit FftBandwidthModel(DeviceId id, std::size_t onchip_points = 0);

    /** Largest N whose working set fits on chip. */
    std::size_t onchipCapacityPoints() const { return _capacity; }

    /**
     * Compulsory off-chip bandwidth at size @p n: sustained performance
     * times the workload's compulsory bytes/flop.
     */
    Bandwidth compulsoryAt(std::size_t n) const;

    /**
     * Modeled measured bandwidth: compulsory times the out-of-core pass
     * count once the data spills, plus a small (2%) metadata overhead.
     */
    Bandwidth measuredAt(std::size_t n) const;

    /**
     * Number of full data passes the out-of-core decomposition makes:
     * 1 while the data fits, ceil(log2 N / log2 capacity) after.
     */
    double trafficMultiplier(std::size_t n) const;

    /** True when the device stays below its peak memory bandwidth at n
     *  (the paper's compute-bound check); devices with unknown peak
     *  bandwidth return true. */
    bool computeBoundAt(std::size_t n) const;

    /** Default on-chip capacity (in points) for @p id. */
    static std::size_t defaultCapacity(DeviceId id);

  private:
    DeviceId _id;
    std::size_t _capacity;
    FftPerfModel _perf;
};

} // namespace dev
} // namespace hcm

#endif // HCM_DEVICES_BANDWIDTH_MODEL_HH
