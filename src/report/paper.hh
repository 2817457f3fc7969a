/**
 * @file
 * Report generators: every table and figure of the paper, assembled from
 * the library's models into TextTable / plot::Figure objects. `hcm
 * table`, `hcm figure` and `hcm scenarios` print them (writeTable,
 * figure, writeFigureRows, writeScenarioSummary), and
 * tests/golden/paper pins those bytes; the integration tests assert on
 * the same data.
 */

#ifndef HCM_REPORT_PAPER_HH
#define HCM_REPORT_PAPER_HH

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/projection.hh"
#include "plot/figure.hh"
#include "util/table.hh"

namespace hcm {
namespace report {

/** Table 1: bound formulas (rendered as text; verified in tests). */
TextTable table1Bounds();

/** Table 2: device summary. */
TextTable table2Devices();

/** Table 3: workload / toolchain summary. */
TextTable table3Workloads();

/** Table 4: MMM and Black-Scholes baseline results. */
TextTable table4Baseline();

/** Table 5: derived U-core parameters (phi, mu). */
TextTable table5UCores();

/** Table 6: technology scaling parameters. */
TextTable table6Scaling();

/**
 * Table @p which (1-6) as `hcm table` prints it: the table, then its
 * numeric illustration where it has one (Table 1's bounds at r = 4,
 * Table 3's compulsory intensities, Table 5's agreement with the
 * published values, Table 6's BCE-unit budgets). False for no such
 * table.
 */
bool writeTable(std::ostream &os, int which);

/** Figure 2: FFT performance, raw and area-normalized. */
plot::Figure fig2FftPerf();

/** Figure 3: FFT power-consumption breakdown per device and size. */
plot::Figure fig3FftPower();

/** Figure 4: FFT energy efficiency and GTX285 bandwidth. */
plot::Figure fig4FftEnergyBandwidth();

/** Figure 5: ITRS 2009 scaling projections. */
plot::Figure fig5Itrs();

/**
 * Generic speedup-projection figure: one panel per f, one series per
 * organization, segments styled by limiter (dashed = power-limited,
 * solid = bandwidth-limited, unconnected = area-limited).
 */
plot::Figure projectionFigure(const std::string &id,
                              const std::string &caption,
                              const wl::Workload &w,
                              const std::vector<double> &fractions,
                              const core::Scenario &scenario =
                                  core::baselineScenario());

/** Figure 6: FFT-1024 projection, f in {.5, .9, .99, .999}. */
plot::Figure fig6FftProjection();

/** Figure 7: MMM projection, f in {.5, .9, .99, .999}. */
plot::Figure fig7MmmProjection();

/** Figure 8: Black-Scholes projection, f in {.5, .9}. */
plot::Figure fig8BsProjection();

/** Figure 9: FFT-1024 projection at 1 TB/s (scenario 2). */
plot::Figure fig9Fft1TbProjection();

/** Figure 10: MMM energy (normalized to BCE@40nm), f in {.5, .9, .99}. */
plot::Figure fig10MmmEnergy();

/** Figure @p which (2-10), or nullopt for no such figure. */
std::optional<plot::Figure> figure(int which);

/**
 * The numeric rows `hcm figure` prints under figure @p which's chart:
 * the device, power, bandwidth and ITRS tables behind Figures 2-5, and
 * per f one table of every organization's value and limiter per node
 * for Figures 6-10.
 */
void writeFigureRows(std::ostream &os, int which);

/**
 * Section 6.2 summary: per scenario, each organization's speedup and
 * limiter at the final (11nm) node for workload @p w at fraction @p f.
 */
TextTable scenarioSummary(const wl::Workload &w, double f);

/** scenarioSummary() followed by the key to its limiter tags. */
void writeScenarioSummary(std::ostream &os, const wl::Workload &w,
                          double f);

} // namespace report
} // namespace hcm

#endif // HCM_REPORT_PAPER_HH
