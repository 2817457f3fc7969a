/**
 * @file
 * The measurement database standing in for the paper's lab measurements
 * (Sections 4-5). Three provenance classes, documented per entry group in
 * measured.cc and in DESIGN.md/EXPERIMENTS.md:
 *
 *  1. MMM and Black-Scholes: taken from the published Table 4. Areas are
 *     the physically-motivated 40nm-normalized core areas (Table 2 with
 *     the tech_node convention); powers follow from the published
 *     GFLOP/J / Mopts/J columns.
 *  2. Core i7 FFT anchors (N = 64, 1024, 16384): chosen consistent with
 *     Figure 2's Core i7 curve and Spiral-era results.
 *  3. All other FFT entries: synthesized by inverting the paper's
 *     Section 5.1 calibration formulas from the published Table 5
 *     (mu, phi), so that re-running the calibration reproduces Table 5
 *     exactly. Absolute GFLOP/s then follow from the Table 2 core areas.
 *
 * All perf values are stored in Gops/s of the workload's own op
 * (GFLOP/s for MMM, pseudo-GFLOP/s for FFT, Gopts/s for Black-Scholes —
 * i.e. the paper's Mopts/s divided by 1000).
 */

#ifndef HCM_DEVICES_MEASURED_HH
#define HCM_DEVICES_MEASURED_HH

#include <optional>
#include <vector>

#include "devices/device.hh"
#include "util/units.hh"
#include "workloads/workload.hh"

namespace hcm {
namespace dev {

/** One measured (device, workload) datapoint, 40nm-normalized. */
struct Measurement
{
    DeviceId device;
    wl::Workload workload;
    Perf perf;      ///< sustained throughput (Gops/s)
    Area area40;    ///< compute area used, normalized to 40nm
    Power power40;  ///< core-only power, normalized to 40nm

    /** Area-normalized performance (Gops/s per mm^2). */
    double perfPerMm2() const { return perfPerArea(perf, area40); }

    /** Energy efficiency (Gops/J). */
    EnergyEff perfPerWatt() const { return perf / power40; }
};

/** A published Table 5 entry ((phi, mu) for a device on a workload). */
struct PublishedUCore
{
    DeviceId device;
    wl::Workload workload;
    double phi;
    double mu;
};

/**
 * The measurement database. A singleton built once; immutable afterwards.
 */
class MeasurementDb
{
  public:
    static const MeasurementDb &instance();

    /** All datapoints. */
    const std::vector<Measurement> &all() const { return _data; }

    /** Datapoint for (device, workload) when the paper has one. */
    std::optional<Measurement> find(DeviceId device,
                                    const wl::Workload &workload) const;

    /** Datapoint for (device, workload); panics when absent. */
    const Measurement &get(DeviceId device,
                           const wl::Workload &workload) const;

    /** All datapoints for one workload, in Table 2 device order. */
    std::vector<Measurement> forWorkload(const wl::Workload &w) const;

  private:
    MeasurementDb();

    std::vector<Measurement> _data;
};

/**
 * The paper's published Table 5 (phi = relative BCE power, mu = relative
 * BCE performance), used to synthesize the FFT measurement entries and as
 * the expected values for the calibration round-trip tests.
 */
const std::vector<PublishedUCore> &publishedTable5();

/** The FFT sizes Table 5 reports: 64, 1024, 16384. */
const std::vector<std::size_t> &table5FftSizes();

/** The workload columns of Table 5 in order: MMM, BS, FFT-64/1024/16384. */
std::vector<wl::Workload> table5Workloads();

} // namespace dev
} // namespace hcm

#endif // HCM_DEVICES_MEASURED_HH
