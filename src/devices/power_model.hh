/**
 * @file
 * Per-device FFT power model reproducing Figure 3's stacked breakdown:
 * core dynamic, core leakage, uncore static, uncore dynamic, and an
 * "unknown" residual. Core power (dynamic + leakage) interpolates the
 * measurement database's anchors; the uncore components model the
 * memory-controller/PHY power the paper's microbenchmarks subtract out
 * (Section 4.2). All breakdown numbers are raw watts at the device's
 * native node, like the non-normalized Figure 3.
 */

#ifndef HCM_DEVICES_POWER_MODEL_HH
#define HCM_DEVICES_POWER_MODEL_HH

#include <cstddef>
#include <vector>

#include "devices/bandwidth_model.hh"
#include "devices/device.hh"
#include "util/units.hh"

namespace hcm {
namespace dev {

/** One stacked bar of Figure 3. */
struct PowerBreakdown
{
    Power coreDynamic;
    Power coreLeakage;
    Power uncoreStatic;
    Power uncoreDynamic;
    Power unknown;

    /** Core-only power (what the paper's Core i7 EATX12V rail carries). */
    Power core() const { return coreDynamic + coreLeakage; }

    /** Total wall power a current probe would see. */
    Power
    total() const
    {
        return coreDynamic + coreLeakage + uncoreStatic + uncoreDynamic +
               unknown;
    }
};

/** FFT power curve + breakdown for one device. */
class FftPowerModel
{
  public:
    explicit FftPowerModel(DeviceId id);

    /** 40nm-normalized core power at size @p n (interpolated anchors). */
    Power corePower40At(std::size_t n) const;

    /** Raw (native-node, non-normalized) breakdown at size @p n. */
    PowerBreakdown breakdownAt(std::size_t n) const;

    /** Fraction of core power that is leakage for this device class. */
    double leakageFraction() const { return _leakFrac; }

  private:
    DeviceId _id;
    double _leakFrac;
    Power _uncoreStatic;
    Power _uncoreDynamicMax;
    Power _unknown;
    std::vector<double> _log2n;
    std::vector<double> _watts40; ///< 40nm-normalized core watts at knots
    FftBandwidthModel _bw;
};

} // namespace dev
} // namespace hcm

#endif // HCM_DEVICES_POWER_MODEL_HH
