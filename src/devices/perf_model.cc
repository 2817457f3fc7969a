#include "perf_model.hh"

#include <cmath>

#include "devices/measured.hh"
#include "util/logging.hh"
#include "util/math.hh"

namespace hcm {
namespace dev {

namespace {

/** Edge shape factors by device class (see file header). */
struct EdgeShape
{
    double lo; ///< perf(2^4) relative to perf(2^6)
    double hi; ///< perf(2^20) relative to perf(2^14)
};

EdgeShape
edgeShape(DeviceClass cls)
{
    switch (cls) {
      case DeviceClass::CPU:
        return {0.85, 0.80};
      case DeviceClass::GPU:
        return {0.45, 1.15};
      case DeviceClass::FPGA:
        return {0.90, 1.05};
      case DeviceClass::ASIC:
        return {0.95, 1.00};
    }
    hcm_panic("bad device class");
}

} // namespace

FftPerfModel::FftPerfModel(DeviceId id)
{
    const MeasurementDb &db = MeasurementDb::instance();
    auto m64 = db.find(id, wl::Workload::fft(64));
    auto m1k = db.find(id, wl::Workload::fft(1024));
    auto m16k = db.find(id, wl::Workload::fft(16384));
    hcm_assert(m64 && m1k && m16k, "device ", deviceName(id),
               " has no FFT measurements");
    _area40 = m64->area40;

    EdgeShape edge = edgeShape(deviceInfo(id).cls);
    _log2n = {4.0, 6.0, 10.0, 14.0, 20.0};
    _perf = {
        m64->perf.value() * edge.lo,
        m64->perf.value(),
        m1k->perf.value(),
        m16k->perf.value(),
        m16k->perf.value() * edge.hi,
    };
    // Area-normalized curve from the per-anchor areas: the ASIC's
    // synthesized core area grows with N, so per-mm^2 must be
    // normalized anchor by anchor, not by one fixed area.
    _perfPerMm2 = {
        m64->perfPerMm2() * edge.lo,
        m64->perfPerMm2(),
        m1k->perfPerMm2(),
        m16k->perfPerMm2(),
        m16k->perfPerMm2() * edge.hi,
    };
}

Perf
FftPerfModel::perfAt(std::size_t n) const
{
    hcm_assert(isPow2(n) && n >= 2, "FFT size must be a power of two");
    double l = static_cast<double>(ilog2(n));
    // Linear in (log2 N, log perf): smooth on the figure's log-log axes.
    std::vector<double> logp(_perf.size());
    for (std::size_t i = 0; i < _perf.size(); ++i)
        logp[i] = std::log(_perf[i]);
    return Perf(std::exp(interpLinear(_log2n, logp, l)));
}

double
FftPerfModel::perfPerMm2At(std::size_t n) const
{
    hcm_assert(isPow2(n) && n >= 2, "FFT size must be a power of two");
    double l = static_cast<double>(ilog2(n));
    std::vector<double> logx(_perfPerMm2.size());
    for (std::size_t i = 0; i < _perfPerMm2.size(); ++i)
        logx[i] = std::log(_perfPerMm2[i]);
    return std::exp(interpLinear(_log2n, logx, l));
}

std::vector<std::size_t>
FftPerfModel::figureSizes()
{
    std::vector<std::size_t> out;
    for (unsigned l = 4; l <= 20; ++l)
        out.push_back(std::size_t{1} << l);
    return out;
}

std::vector<std::size_t>
FftPerfModel::measuredSizes(DeviceId id)
{
    unsigned lo = 4, hi = 20;
    switch (id) {
      case DeviceId::CoreI7:
        lo = 5;
        hi = 19;
        break;
      case DeviceId::Lx760:
        lo = 4;
        hi = 14;
        break;
      case DeviceId::Gtx285:
        lo = 5;
        hi = 19;
        break;
      case DeviceId::Gtx480:
        lo = 4;
        hi = 20;
        break;
      case DeviceId::Asic:
        lo = 5;
        hi = 13;
        break;
      case DeviceId::R5870:
        hcm_panic("the R5870 has no FFT measurements");
    }
    std::vector<std::size_t> out;
    for (unsigned l = lo; l <= hi; ++l)
        out.push_back(std::size_t{1} << l);
    return out;
}

std::vector<DeviceId>
FftPerfModel::figureDevices()
{
    return {DeviceId::CoreI7, DeviceId::Lx760, DeviceId::Gtx285,
            DeviceId::Gtx480, DeviceId::Asic};
}

} // namespace dev
} // namespace hcm
