/**
 * @file
 * Section 5.1 calibration: derive Base-Core-Equivalent (BCE) parameters
 * from the Core i7 baseline, then per-device U-core parameters (mu, phi)
 * from measured performance and power, via the footnote-1 formulas:
 *
 *   mu  = x_ucore / (x_corei7 * sqrt(r))           x = perf / mm^2
 *   phi = mu * e_corei7 / (r^((1-alpha)/2) * e_u)   e = perf / W
 *
 * with r = 2 (one Core i7 core is two Atom-sized BCEs) and alpha = 1.75.
 * Applied to the measurement database this reproduces the paper's
 * Table 5.
 */

#ifndef HCM_CORE_CALIBRATION_HH
#define HCM_CORE_CALIBRATION_HH

#include <optional>
#include <vector>

#include "devices/measured.hh"
#include "core/ucore.hh"
#include "util/units.hh"
#include "workloads/workload.hh"

namespace hcm {
namespace core {

/** Constants of the Section 5.1 derivation. */
struct CalibConstants
{
    /** Serial power exponent (Grochowski et al.). */
    double alpha = 1.75;
    /** Core i7 core size in BCE units (Atom-derived). */
    double rFast = 2.0;
    /** Intel Atom core die area at 45nm (mm^2). */
    double atomAreaMm2 = 26.0;
    /** Non-compute fraction subtracted from the Atom area. */
    double atomNonComputeFrac = 0.10;
};

/** Derived BCE parameters, physical and per workload. */
class BceCalibration
{
  public:
    /**
     * Calibrate from the Core i7 rows of @p db.
     * @param consts derivation constants (defaults are the paper's).
     */
    explicit BceCalibration(const dev::MeasurementDb &db,
                            CalibConstants consts = {});

    /** The shared default calibration against the embedded database. */
    static const BceCalibration &standard();

    /** BCE core area at 40/45nm: fast core area / rFast. */
    Area bceArea() const { return _bceArea; }

    /** Atom-based sanity value: atom area less non-compute overhead. */
    Area atomComputeArea() const;

    /**
     * Active power of one BCE in watts: the Core i7's mean per-core power
     * across all measured workloads, de-rated by the serial power law
     * (fast core = rFast^(alpha/2) BCE power units).
     */
    Power bcePower() const { return _bcePower; }

    /** BCE performance on @p w: i7 chip perf / (cores * sqrt(rFast)). */
    Perf bcePerf(const wl::Workload &w) const;

    /** Compulsory off-chip traffic of one BCE running @p w. */
    Bandwidth bceBandwidth(const wl::Workload &w) const;

    /**
     * Derive (mu, phi) for a measured datapoint against this BCE
     * (footnote-1 formulas).
     */
    UCoreParams deriveUCore(const dev::Measurement &m) const;

    /**
     * Derive (mu, phi) for @p device on @p workload from the database;
     * nullopt when the paper has no measurement for the pair.
     */
    std::optional<UCoreParams> deriveUCore(dev::DeviceId device,
                                           const wl::Workload &w) const;

    /** One derived Table 5 row. */
    struct Table5Entry
    {
        dev::DeviceId device;
        wl::Workload workload;
        UCoreParams params;
    };

    /** Regenerate Table 5 (every non-i7 datapoint in the database). */
    std::vector<Table5Entry> deriveTable5() const;

  private:
    const dev::Measurement &i7(const wl::Workload &w) const;

    const dev::MeasurementDb &_db;
    CalibConstants _consts;
    Area _bceArea;
    Power _bcePower;
};

} // namespace core
} // namespace hcm

#endif // HCM_CORE_CALIBRATION_HH
