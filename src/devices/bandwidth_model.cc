#include "bandwidth_model.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/math.hh"
#include "workloads/workload.hh"

namespace hcm {
namespace dev {

FftBandwidthModel::FftBandwidthModel(DeviceId id, std::size_t onchip_points)
    : _id(id),
      _capacity(onchip_points ? onchip_points : defaultCapacity(id)),
      _perf(id)
{
    hcm_assert(isPow2(_capacity), "on-chip capacity must be a power of two");
}

std::size_t
FftBandwidthModel::defaultCapacity(DeviceId id)
{
    switch (id) {
      case DeviceId::CoreI7:
        // 8 MB shared L3: ~1M complex floats; keep headroom for twiddles.
        return std::size_t{1} << 19;
      case DeviceId::Gtx285:
        // Measured in the paper: compulsory until N = 2^12.
        return std::size_t{1} << 12;
      case DeviceId::Gtx480:
        // Fermi adds a 768 KB L2 + larger shared memory.
        return std::size_t{1} << 14;
      case DeviceId::Lx760:
        // ~26 Mb of block RAM: ~400k points.
        return std::size_t{1} << 18;
      case DeviceId::Asic:
        // Streaming cores are sized to their N; always compulsory.
        return std::size_t{1} << 20;
      case DeviceId::R5870:
        break;
    }
    hcm_panic("no FFT bandwidth model for device");
}

Bandwidth
FftBandwidthModel::compulsoryAt(std::size_t n) const
{
    double bytes_per_flop = wl::Workload::fft(n).bytesPerOp();
    return trafficFor(_perf.perfAt(n), bytes_per_flop);
}

double
FftBandwidthModel::trafficMultiplier(std::size_t n) const
{
    hcm_assert(isPow2(n), "FFT size must be a power of two");
    if (n <= _capacity)
        return 1.0;
    double passes = std::ceil(static_cast<double>(ilog2(n)) /
                              static_cast<double>(ilog2(_capacity)));
    return passes;
}

Bandwidth
FftBandwidthModel::measuredAt(std::size_t n) const
{
    return compulsoryAt(n) * trafficMultiplier(n) * 1.02;
}

bool
FftBandwidthModel::computeBoundAt(std::size_t n) const
{
    Bandwidth peak = deviceInfo(_id).memBw;
    if (peak.value() <= 0.0)
        return true;
    return measuredAt(n) < peak;
}

} // namespace dev
} // namespace hcm
