#include "paper.hh"

#include <algorithm>
#include <cmath>

#include "amdahl/pollack.hh"
#include "core/bounds.hh"
#include "core/budget.hh"
#include "core/calibration.hh"
#include "devices/bandwidth_model.hh"
#include "devices/measured.hh"
#include "devices/perf_model.hh"
#include "devices/power_model.hh"
#include "devices/probe.hh"
#include "itrs/roadmap.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace hcm {
namespace report {

using namespace core;

namespace {

/** Per-workload display scale: BS is reported in Mopts (Gopts * 1000). */
double
displayScale(const wl::Workload &w)
{
    return w.kind() == wl::Kind::BlackScholes ? 1000.0 : 1.0;
}

plot::LineStyle
styleFor(Limiter limiter)
{
    switch (limiter) {
      case Limiter::Power:
        return plot::LineStyle::Dashed;
      case Limiter::Bandwidth:
        return plot::LineStyle::Solid;
      case Limiter::Area:
        return plot::LineStyle::Points;
      case Limiter::Thermal:
        // Thermal caps heat like power caps watts: share the dashed
        // family the paper uses for power-limited segments.
        return plot::LineStyle::Dashed;
    }
    hcm_panic("bad limiter");
}

/**
 * "(<paper index>) <name>", appended piece by piece: GCC 12 reports a
 * false -Wrestrict in an inlined "(" + std::string at -O2.
 */
std::string
paperLabel(const Organization &org)
{
    std::string label = "(";
    label += std::to_string(org.paperIndex);
    label += ") ";
    return label += org.name;
}

/** Node-category x axis shared by the projection figures. */
plot::Axis
nodeAxis()
{
    plot::Axis x;
    x.label = "technology node";
    x.categories = itrs::nodeLabels();
    return x;
}

} // namespace

TextTable
table1Bounds()
{
    TextTable t("Table 1: Bounds on area, power, and bandwidth");
    t.setHeaders({"", "Symmetric", "Asym-offload", "Heterogeneous"});
    t.setAlign({Align::Left, Align::Center, Align::Center, Align::Center});
    t.addRow({"Area constraints", "n <= A", "n <= A", "n <= A"});
    t.addRow({"Parallel power bounds", "n <= P/r^(a/2-1)", "n <= P + r",
              "n <= P/phi + r"});
    t.addRow({"Serial power bounds", "r^(a/2) <= P", "r^(a/2) <= P",
              "r^(a/2) <= P"});
    t.addRow({"Parallel bandwidth bounds", "n <= B*sqrt(r)", "n <= B + r",
              "n <= B/mu + r"});
    t.addRow({"Serial bandwidth bounds", "r <= B^2", "r <= B^2",
              "r <= B^2"});
    return t;
}

namespace {

/** Table 1's bounds evaluated at r = 4 under the 40nm FFT-1024 budgets. */
TextTable
table1AtR4()
{
    auto w = wl::Workload::fft(1024);
    Budget b = makeBudget(itrs::nodeParams(40.0), w);
    double r = 4.0;
    double alpha = model::kDefaultAlpha;

    TextTable t("Bounds evaluated at 40nm, FFT-1024, r = 4 (BCE units: A=" +
                fmtSig(b.area, 3) + ", P=" + fmtSig(b.power, 3) +
                ", B=" + fmtSig(b.bandwidth, 3) + ")");
    t.setHeaders({"Organization", "area n<=", "power n<=", "bandwidth n<=",
                  "serial r<="});
    for (const Organization &org : paperOrganizations(w)) {
        t.addRow({org.name, fmtSig(areaBoundN(b), 3),
                  fmtSig(powerBoundN(org, r, b, alpha), 3),
                  fmtSig(bandwidthBoundN(org, r, b), 3),
                  fmtSig(serialRCap(b, alpha), 3)});
    }
    return t;
}

} // namespace

TextTable
table2Devices()
{
    TextTable t("Table 2: Summary of devices");
    t.setHeaders({"Device", "Class", "Year", "Process", "Die area",
                  "Core area", "Clock", "Voltage", "Memory", "Peak BW"});
    for (dev::DeviceId id : dev::allDevices()) {
        const dev::Device &d = dev::deviceInfo(id);
        auto dash_if_zero = [](double v, const std::string &unit) {
            return v > 0.0 ? fmtSig(v, 4) + unit : std::string("-");
        };
        t.addRow({d.name, dev::className(d.cls), std::to_string(d.year),
                  d.process, dash_if_zero(d.dieArea.value(), " mm^2"),
                  dash_if_zero(d.coreArea.value(), " mm^2"),
                  dash_if_zero(d.clock.value(), " GHz"), d.voltage,
                  d.memory, dash_if_zero(d.memBw.value(), " GB/s")});
    }
    return t;
}

TextTable
table3Workloads()
{
    TextTable t("Table 3: Summary of workloads");
    t.setHeaders({"Workload", "Core i7", "GTX285", "GTX480", "R5870",
                  "LX760/ASIC"});
    t.setAlign({Align::Left, Align::Left, Align::Left, Align::Left,
                Align::Left, Align::Left});
    for (const wl::ImplementationInfo &info : wl::implementationTable())
        t.addRow({wl::kindName(info.kind), info.coreI7, info.gtx285,
                  info.gtx480, info.r5870, info.asic});
    return t;
}

namespace {

/** The compulsory intensities behind Table 3's workloads. */
TextTable
table3Intensities()
{
    TextTable t("Compulsory arithmetic intensity (Section 6 footnotes)");
    t.setHeaders({"Workload", "ops/invocation", "bytes/invocation",
                  "bytes/op", "ops/byte"});
    for (const wl::Workload &w :
         {wl::Workload::mmm(128), wl::Workload::blackScholes(),
          wl::Workload::fft(64), wl::Workload::fft(1024),
          wl::Workload::fft(16384)}) {
        t.addRow({w.name(), fmtSig(w.opsPerInvocation(), 4),
                  fmtSig(w.bytesPerInvocation(), 4),
                  fmtSig(w.bytesPerOp(), 4), fmtSig(w.intensity(), 4)});
    }
    return t;
}

} // namespace

TextTable
table4Baseline()
{
    TextTable t("Table 4: Summary of results for MMM and BS");
    t.setHeaders({"Workload", "Device", "Perf", "Perf/mm^2", "Perf/J"});
    const dev::MeasurementDb &db = dev::MeasurementDb::instance();
    for (const wl::Workload &w :
         {wl::Workload::mmm(), wl::Workload::blackScholes()}) {
        double scale = displayScale(w);
        for (const dev::Measurement &m : db.forWorkload(w)) {
            t.addRow({w.name() + " (" + w.perfUnit() + ")",
                      dev::deviceName(m.device),
                      fmtSig(m.perf.value() * scale, 4),
                      fmtSig(m.perfPerMm2() * scale, 4),
                      fmtSig(m.perfPerWatt().value() * scale, 4)});
        }
        if (w.kind() == wl::Kind::MMM)
            t.addRule();
    }
    return t;
}

TextTable
table5UCores()
{
    TextTable t("Table 5: U-core parameters "
                "(phi = rel. BCE power, mu = rel. BCE performance)");
    std::vector<std::string> headers = {"Device", ""};
    for (const wl::Workload &w : dev::table5Workloads())
        headers.push_back(w.name());
    t.setHeaders(headers);

    const BceCalibration &calib = BceCalibration::standard();
    const dev::DeviceId devices[] = {
        dev::DeviceId::Gtx285, dev::DeviceId::Gtx480, dev::DeviceId::R5870,
        dev::DeviceId::Lx760, dev::DeviceId::Asic,
    };
    for (dev::DeviceId id : devices) {
        std::vector<std::string> phi_row = {dev::deviceName(id), "phi"};
        std::vector<std::string> mu_row = {"", "mu"};
        for (const wl::Workload &w : dev::table5Workloads()) {
            auto p = calib.deriveUCore(id, w);
            phi_row.push_back(p ? fmtSig(p->phi, 3) : "-");
            mu_row.push_back(p ? fmtSig(p->mu, 3) : "-");
        }
        t.addRow(phi_row);
        t.addRow(mu_row);
    }
    return t;
}

namespace {

/** The BCE calibration behind Table 5 and its worst relative deviation
 *  from the published (mu, phi). */
void
writeTable5Agreement(std::ostream &os)
{
    const BceCalibration &calib = BceCalibration::standard();
    double worst = 0.0;
    for (const dev::PublishedUCore &p : dev::publishedTable5()) {
        auto d = calib.deriveUCore(p.device, p.workload);
        worst = std::max({worst, std::fabs(d->mu - p.mu) / p.mu,
                          std::fabs(d->phi - p.phi) / p.phi});
    }
    os << "BCE calibration: area = " << fmtSig(calib.bceArea().value(), 3)
       << " mm^2, power = " << fmtSig(calib.bcePower().value(), 3)
       << " W, Atom cross-check = "
       << fmtSig(calib.atomComputeArea().value(), 3) << " mm^2\n";
    os << "worst relative deviation from published Table 5: "
       << fmtPercent(worst, 2) << "\n";
}

} // namespace

TextTable
table6Scaling()
{
    TextTable t("Table 6: Parameters assumed in technology scaling");
    t.setHeaders({"Parameter", "2011", "2013", "2016", "2019", "2022"});
    auto row = [&](const std::string &name, auto getter, int sig) {
        std::vector<std::string> cells = {name};
        for (const itrs::NodeParams &n : itrs::nodeTable())
            cells.push_back(fmtSig(getter(n), sig));
        t.addRow(cells);
    };
    {
        std::vector<std::string> cells = {"Technology node"};
        for (const itrs::NodeParams &n : itrs::nodeTable())
            cells.push_back(n.label());
        t.addRow(cells);
    }
    row("Core die budget (mm^2)",
        [](const itrs::NodeParams &n) { return n.coreDieBudget.value(); },
        4);
    row("Core power budget (W)",
        [](const itrs::NodeParams &n) { return n.corePowerBudget.value(); },
        4);
    row("Bandwidth (GB/s)",
        [](const itrs::NodeParams &n) { return n.offchipBw.value(); }, 4);
    row("Max area (BCE units)",
        [](const itrs::NodeParams &n) { return n.maxAreaBce; }, 4);
    row("Rel. pwr per transistor",
        [](const itrs::NodeParams &n) { return n.relPowerPerTransistor; },
        3);
    row("Rel. bandwidth",
        [](const itrs::NodeParams &n) { return n.relBandwidth; }, 3);
    return t;
}

namespace {

/** The BCE-unit budgets Table 6 implies per workload. */
TextTable
table6Budgets()
{
    TextTable t("Implied BCE-unit budgets (A | P | B per workload)");
    std::vector<std::string> headers = {"Node", "A", "P"};
    const wl::Workload workloads[] = {wl::Workload::mmm(),
                                      wl::Workload::blackScholes(),
                                      wl::Workload::fft(1024)};
    for (const auto &w : workloads)
        headers.push_back("B(" + w.name() + ")");
    t.setHeaders(headers);
    for (const itrs::NodeParams &node : itrs::nodeTable()) {
        std::vector<std::string> row = {node.label()};
        Budget b = makeBudget(node, workloads[0]);
        row.push_back(fmtSig(b.area, 3));
        row.push_back(fmtSig(b.power, 3));
        for (const auto &w : workloads)
            row.push_back(fmtSig(makeBudget(node, w).bandwidth, 3));
        t.addRow(row);
    }
    return t;
}

} // namespace

bool
writeTable(std::ostream &os, int which)
{
    switch (which) {
      case 1:
        os << table1Bounds() << "\n" << table1AtR4();
        return true;
      case 2:
        os << table2Devices();
        return true;
      case 3:
        os << table3Workloads() << "\n" << table3Intensities();
        return true;
      case 4:
        os << table4Baseline();
        return true;
      case 5:
        os << table5UCores() << "\n";
        writeTable5Agreement(os);
        return true;
      case 6:
        os << table6Scaling() << "\n" << table6Budgets();
        return true;
      default:
        return false;
    }
}

plot::Figure
fig2FftPerf()
{
    plot::Figure fig("fig2", "FFT performance in pseudo-GFLOP/s "
                             "(# FLOPS = 5 N log2 N)");
    plot::Axis x{"log2(N)", false, {}};
    plot::Axis y_raw{"pseudo-GFLOP/s", true, {}};
    plot::Axis y_norm{"pseudo-GFLOP/s per mm^2 (40nm)", true, {}};

    plot::Panel &raw = fig.addPanel("FFT performance (non-normalized)", x,
                                    y_raw);
    plot::Panel &norm = fig.addPanel("Area-normalized FFT performance "
                                     "(40nm)", x, y_norm);
    for (dev::DeviceId id : dev::FftPerfModel::figureDevices()) {
        dev::FftPerfModel model(id);
        plot::Series s_raw(dev::deviceName(id));
        plot::Series s_norm(dev::deviceName(id));
        for (std::size_t n : dev::FftPerfModel::figureSizes()) {
            double l = std::log2(static_cast<double>(n));
            s_raw.add(l, model.perfAt(n).value());
            s_norm.add(l, model.perfPerMm2At(n));
        }
        raw.series.push_back(s_raw);
        norm.series.push_back(s_norm);
    }
    return fig;
}

namespace {

/** Figure 2 at the anchor sizes, and the paper's headline ratios. */
void
writeFig2Rows(std::ostream &os)
{
    TextTable t("FFT pseudo-GFLOP/s (per mm^2 at 40nm in parentheses)");
    std::vector<std::string> headers = {"Device"};
    for (std::size_t n : {64u, 1024u, 16384u, 1048576u})
        headers.push_back("N=2^" + std::to_string(
            static_cast<int>(std::log2(n))));
    t.setHeaders(headers);
    for (dev::DeviceId id : dev::FftPerfModel::figureDevices()) {
        dev::FftPerfModel model(id);
        std::vector<std::string> row = {dev::deviceName(id)};
        for (std::size_t n : {64u, 1024u, 16384u, 1048576u})
            row.push_back(fmtSig(model.perfAt(n).value(), 3) + " (" +
                          fmtSig(model.perfPerMm2At(n), 3) + ")");
        t.addRow(row);
    }
    os << t;

    dev::FftPerfModel asic(dev::DeviceId::Asic);
    dev::FftPerfModel gpu(dev::DeviceId::Gtx285);
    dev::FftPerfModel cpu(dev::DeviceId::CoreI7);
    os << "\narea-normalized ASIC advantage at N=1024: "
       << fmtSig(asic.perfPerMm2At(1024) / gpu.perfPerMm2At(1024), 3)
       << "x vs GTX285, "
       << fmtSig(asic.perfPerMm2At(1024) / cpu.perfPerMm2At(1024), 3)
       << "x vs Core i7 (paper: ~100x / ~1000x)\n";
}

} // namespace

plot::Figure
fig3FftPower()
{
    plot::Figure fig("fig3", "FFT power consumption breakdown "
                             "(non-normalized)");
    plot::Axis x{"log2(N)", false, {}};
    plot::Axis y{"power (W)", false, {}};
    for (dev::DeviceId id : dev::FftPerfModel::figureDevices()) {
        dev::FftPowerModel model(id);
        plot::Panel &panel =
            fig.addPanel(dev::deviceName(id) + " power breakdown", x, y);
        plot::Series core_dyn("core dynamic");
        plot::Series core_leak("core leakage");
        plot::Series unc_static("uncore static");
        plot::Series unc_dyn("uncore dynamic");
        plot::Series unknown("unknown");
        plot::Series total("total");
        // Figure 3 sweeps each device over the sizes its platform was
        // actually measured at (the paper's per-device x ranges).
        for (std::size_t n : dev::FftPerfModel::measuredSizes(id)) {
            double l = std::log2(static_cast<double>(n));
            dev::PowerBreakdown b = model.breakdownAt(n);
            core_dyn.add(l, b.coreDynamic.value());
            core_leak.add(l, b.coreLeakage.value());
            unc_static.add(l, b.uncoreStatic.value());
            unc_dyn.add(l, b.uncoreDynamic.value());
            unknown.add(l, b.unknown.value());
            total.add(l, b.total().value());
        }
        panel.series = {core_dyn, core_leak, unc_static, unc_dyn, unknown,
                        total};
    }
    return fig;
}

namespace {

/** Figure 3 at N = 1024, with the Section 4.2 probe-subtraction
 *  methodology's recovered core power beside the model's. */
TextTable
fig3Rows()
{
    TextTable t("Power breakdown at N = 1024 (raw watts) and the "
                "probe-recovered core power");
    t.setHeaders({"Device", "core dyn", "core leak", "uncore static",
                  "uncore dyn", "unknown", "total", "probe est. core"});
    for (dev::DeviceId id : dev::FftPerfModel::figureDevices()) {
        dev::FftPowerModel model(id);
        dev::PowerBreakdown b = model.breakdownAt(1024);
        dev::CurrentProbe probe(id, 0.01);
        dev::UncoreSubtraction sub(probe, 32);
        t.addRow({dev::deviceName(id), fmtSig(b.coreDynamic.value(), 3),
                  fmtSig(b.coreLeakage.value(), 3),
                  fmtSig(b.uncoreStatic.value(), 3),
                  fmtSig(b.uncoreDynamic.value(), 3),
                  fmtSig(b.unknown.value(), 3),
                  fmtSig(b.total().value(), 3),
                  fmtSig(sub.estimateCorePower(1024).value(), 3)});
    }
    return t;
}

} // namespace

plot::Figure
fig4FftEnergyBandwidth()
{
    plot::Figure fig("fig4", "FFT energy efficiency and bandwidth");
    plot::Axis x{"log2(N)", false, {}};
    plot::Axis y_eff{"pseudo-GFLOPs per J (40nm)", true, {}};
    plot::Axis y_bw{"memory bandwidth (GB/s)", false, {}};

    plot::Panel &eff = fig.addPanel("FFT energy efficiency (40nm)", x,
                                    y_eff);
    for (dev::DeviceId id : dev::FftPerfModel::figureDevices()) {
        dev::FftPerfModel perf(id);
        dev::FftPowerModel power(id);
        plot::Series s(dev::deviceName(id));
        for (std::size_t n : dev::FftPerfModel::figureSizes()) {
            double l = std::log2(static_cast<double>(n));
            s.add(l, perf.perfAt(n).value() /
                         power.corePower40At(n).value());
        }
        eff.series.push_back(s);
    }

    plot::Panel &bw = fig.addPanel("FFT bandwidth", x, y_bw);
    {
        dev::FftBandwidthModel m285(dev::DeviceId::Gtx285);
        dev::FftBandwidthModel m480(dev::DeviceId::Gtx480);
        plot::Series comp285("FFT compulsory bandwidth (GTX285)");
        plot::Series meas285("FFT measured bandwidth (GTX285)");
        plot::Series comp480("FFT compulsory bandwidth (GTX480)");
        for (std::size_t n : dev::FftPerfModel::figureSizes()) {
            double l = std::log2(static_cast<double>(n));
            comp285.add(l, m285.compulsoryAt(n).value());
            meas285.add(l, m285.measuredAt(n).value());
            comp480.add(l, m480.compulsoryAt(n).value());
        }
        bw.series = {comp285, meas285, comp480};
    }
    return fig;
}

namespace {

/** Figure 4's GTX285 bandwidth per size and its on-chip capacity. */
void
writeFig4Rows(std::ostream &os)
{
    TextTable bw("GTX285 FFT bandwidth (GB/s); peak = 159");
    bw.setHeaders({"log2(N)", "compulsory", "measured", "passes",
                   "compute-bound?"});
    dev::FftBandwidthModel m285(dev::DeviceId::Gtx285);
    for (std::size_t n : dev::FftPerfModel::figureSizes()) {
        bw.addRow({std::to_string(static_cast<int>(std::log2(n))),
                   fmtSig(m285.compulsoryAt(n).value(), 3),
                   fmtSig(m285.measuredAt(n).value(), 3),
                   fmtSig(m285.trafficMultiplier(n), 2),
                   m285.computeBoundAt(n) ? "yes" : "no"});
    }
    os << bw;
    os << "\non-chip capacity: 2^"
       << static_cast<int>(std::log2(m285.onchipCapacityPoints()))
       << " points — compulsory traffic until then (paper: 2^12)\n";
}

} // namespace

plot::Figure
fig5Itrs()
{
    plot::Figure fig("fig5", "ITRS 2009 scaling projections "
                             "(high-performance MPUs and ASICs)");
    plot::Axis x{"year", false, {}};
    plot::Axis y{"normalized to 2011", false, {}};
    plot::Panel &panel = fig.addPanel("ITRS 2009 projections", x, y);

    plot::Series pins("Package pins");
    plot::Series vdd("Vdd");
    plot::Series cap("Gate capacitance");
    plot::Series pwr("Combined technology power reduction");
    for (const itrs::RoadmapYear &yr : itrs::Roadmap::instance().years()) {
        pins.add(yr.year, yr.pins);
        vdd.add(yr.year, yr.vdd);
        cap.add(yr.year, yr.gateCap);
        pwr.add(yr.year, yr.combinedPower);
    }
    panel.series = {pins, vdd, cap, pwr};
    return fig;
}

namespace {

/** Figure 5's projections per year. */
TextTable
fig5Rows()
{
    TextTable t("ITRS 2009 projections (normalized to 2011)");
    t.setHeaders({"Year", "Package pins", "Vdd", "Gate capacitance",
                  "Combined power reduction"});
    for (const itrs::RoadmapYear &y : itrs::Roadmap::instance().years()) {
        t.addRow({std::to_string(y.year), fmtFixed(y.pins, 3),
                  fmtFixed(y.vdd, 3), fmtFixed(y.gateCap, 3),
                  fmtFixed(y.combinedPower, 3)});
    }
    return t;
}

} // namespace

plot::Figure
projectionFigure(const std::string &id, const std::string &caption,
                 const wl::Workload &w,
                 const std::vector<double> &fractions,
                 const Scenario &scenario)
{
    plot::Figure fig(id, caption + " (dashed = power-limited, solid = "
                                   "bandwidth-limited, isolated points = "
                                   "area-limited)");
    plot::Axis y{"speedup (vs 1 BCE)", false, {}};
    for (double f : fractions) {
        plot::Panel &panel =
            fig.addPanel("f=" + fmtFixed(f, 3), nodeAxis(), y);
        for (const ProjectionSeries &series : projectAll(w, f, scenario)) {
            plot::Series s(paperLabel(series.org));
            for (std::size_t i = 0; i < series.points.size(); ++i) {
                const NodePoint &pt = series.points[i];
                if (!pt.design.feasible)
                    continue;
                s.add(static_cast<double>(i), pt.design.speedup,
                      styleFor(pt.design.limiter));
            }
            panel.series.push_back(s);
        }
    }
    return fig;
}

plot::Figure
fig6FftProjection()
{
    return projectionFigure("fig6", "FFT-1024 projection",
                            wl::Workload::fft(1024), standardFractions());
}

plot::Figure
fig7MmmProjection()
{
    return projectionFigure("fig7", "MMM projection", wl::Workload::mmm(),
                            standardFractions());
}

plot::Figure
fig8BsProjection()
{
    return projectionFigure("fig8", "Black-Scholes projection",
                            wl::Workload::blackScholes(), {0.5, 0.9});
}

plot::Figure
fig9Fft1TbProjection()
{
    return projectionFigure("fig9",
                            "FFT-1024 projection given 1 TB/s bandwidth",
                            wl::Workload::fft(1024), standardFractions(),
                            scenarioByName("bandwidth-1tb"));
}

plot::Figure
fig10MmmEnergy()
{
    plot::Figure fig("fig10", "MMM energy projections "
                              "(normalized to BCE at 40nm)");
    plot::Axis y{"energy (normalized)", false, {}};
    for (double f : {0.5, 0.9, 0.99}) {
        plot::Panel &panel =
            fig.addPanel("f=" + fmtFixed(f, 3), nodeAxis(), y);
        for (const ProjectionSeries &series :
             projectAll(wl::Workload::mmm(), f)) {
            plot::Series s(paperLabel(series.org));
            for (std::size_t i = 0; i < series.points.size(); ++i) {
                const NodePoint &pt = series.points[i];
                if (!pt.design.feasible)
                    continue;
                s.add(static_cast<double>(i), pt.energyNormalized(),
                      styleFor(pt.design.limiter));
            }
            panel.series.push_back(s);
        }
    }
    return fig;
}

std::optional<plot::Figure>
figure(int which)
{
    switch (which) {
      case 2:
        return fig2FftPerf();
      case 3:
        return fig3FftPower();
      case 4:
        return fig4FftEnergyBandwidth();
      case 5:
        return fig5Itrs();
      case 6:
        return fig6FftProjection();
      case 7:
        return fig7MmmProjection();
      case 8:
        return fig8BsProjection();
      case 9:
        return fig9Fft1TbProjection();
      case 10:
        return fig10MmmEnergy();
      default:
        return std::nullopt;
    }
}

namespace {

/**
 * The numbers behind a projection figure: one table per f, one row per
 * organization, one column per node, each cell tagged with its limiter.
 */
void
writeProjectionRows(std::ostream &os, const wl::Workload &w,
                    const std::vector<double> &fractions,
                    const Scenario &scenario, bool energy = false)
{
    for (double f : fractions) {
        TextTable t((energy ? "Energy (normalized to BCE@40nm), " :
                              "Speedup (vs 1 BCE), ") +
                    w.name() + ", f=" + fmtFixed(f, 3) + ", scenario=" +
                    scenario.name);
        std::vector<std::string> headers = {"Organization"};
        for (const auto &node : itrs::nodeTable())
            headers.push_back(node.label());
        t.setHeaders(headers);
        for (const ProjectionSeries &series : projectAll(w, f, scenario)) {
            std::vector<std::string> row = {paperLabel(series.org)};
            for (const NodePoint &pt : series.points) {
                if (!pt.design.feasible) {
                    row.push_back("infeasible");
                    continue;
                }
                double v = energy ? pt.energyNormalized()
                                  : pt.design.speedup;
                row.push_back(fmtSig(v, 3) + " (" +
                              limiterName(pt.design.limiter).substr(0, 1) +
                              ")");
            }
            t.addRow(row);
        }
        os << t << "\n";
    }
    os << "legend: "
       << limiterLegend(1, scenario.thermalBounded(), "-limited") << "\n\n";
}

} // namespace

void
writeFigureRows(std::ostream &os, int which)
{
    switch (which) {
      case 2:
        writeFig2Rows(os);
        return;
      case 3:
        os << fig3Rows();
        return;
      case 4:
        writeFig4Rows(os);
        return;
      case 5:
        os << fig5Rows();
        return;
      case 6:
        writeProjectionRows(os, wl::Workload::fft(1024),
                            standardFractions(), baselineScenario());
        return;
      case 7:
        writeProjectionRows(os, wl::Workload::mmm(), standardFractions(),
                            baselineScenario());
        return;
      case 8:
        writeProjectionRows(os, wl::Workload::blackScholes(), {0.5, 0.9},
                            baselineScenario());
        return;
      case 9:
        writeProjectionRows(os, wl::Workload::fft(1024),
                            standardFractions(),
                            scenarioByName("bandwidth-1tb"));
        return;
      case 10:
        writeProjectionRows(os, wl::Workload::mmm(), {0.5, 0.9, 0.99},
                            baselineScenario(), /*energy=*/true);
        return;
      default:
        hcm_panic("no figure ", which);
    }
}

TextTable
scenarioSummary(const wl::Workload &w, double f)
{
    TextTable t("Section 6.2 scenarios: " + w.name() + " speedups at 11nm"
                ", f=" + fmtFixed(f, 3));
    std::vector<std::string> headers = {"Scenario"};
    for (const Organization &org : paperOrganizations(w))
        headers.push_back(org.name);
    t.setHeaders(headers);

    auto add_scenario = [&](const Scenario &scenario) {
        std::vector<std::string> cells = {scenario.name};
        for (const ProjectionSeries &series : projectAll(w, f, scenario)) {
            const NodePoint &last = series.points.back();
            if (!last.design.feasible) {
                cells.push_back("infeasible");
                continue;
            }
            cells.push_back(fmtSig(last.design.speedup, 3) + " (" +
                            limiterName(last.design.limiter).substr(0, 2) +
                            ")");
        }
        t.addRow(cells);
    };

    add_scenario(baselineScenario());
    for (const Scenario &s : alternativeScenarios())
        add_scenario(s);
    return t;
}

void
writeScenarioSummary(std::ostream &os, const wl::Workload &w, double f)
{
    // The study's rows include the thermal-bounded scenarios.
    os << scenarioSummary(w, f) << "limiters: "
       << limiterLegend(2, /*thermal=*/true) << "\n";
}

} // namespace report
} // namespace hcm
