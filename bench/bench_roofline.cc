/** @file Roofline view of the measured devices: where each workload's
 *  compulsory intensity lands relative to each device's ridge — the
 *  generalized form of Section 5's compute-bound verification. */

#include <cmath>
#include <iostream>

#include "devices/measured.hh"
#include "devices/roofline.hh"
#include "plot/ascii_chart.hh"
#include "util/format.hh"
#include "util/table.hh"

namespace {

using namespace hcm;

const dev::DeviceId kDevices[] = {
    dev::DeviceId::CoreI7,
    dev::DeviceId::Gtx285,
    dev::DeviceId::Gtx480,
    dev::DeviceId::R5870,
};

} // namespace

int
main()
{
    TextTable t("Rooflines (sustained peak vs memory ceiling) and "
                "workload placement");
    t.setHeaders({"Device", "Workload", "peak Gops/s", "peak GB/s",
                  "ridge ops/B", "workload ops/B", "attainable",
                  "compute-bound?"});
    for (dev::DeviceId id : kDevices) {
        for (const wl::Workload &w :
             {wl::Workload::mmm(), wl::Workload::blackScholes(),
              wl::Workload::fft(64), wl::Workload::fft(1024)}) {
            if (!dev::MeasurementDb::instance().find(id, w))
                continue;
            dev::Roofline r = dev::Roofline::forDevice(id, w);
            t.addRow({dev::deviceName(id), w.name(),
                      fmtSig(r.peakPerf().value(), 3),
                      fmtSig(r.peakBandwidth().value(), 4),
                      fmtSig(r.ridgeIntensity(), 3),
                      fmtSig(w.intensity(), 3),
                      fmtSig(r.attainable(w).value(), 3),
                      r.computeBound(w) ? "yes" : "no"});
        }
        t.addRule();
    }
    std::cout << t << "\n";

    // The classic log-log roofline chart for the GTX285.
    dev::Roofline r285 = dev::Roofline::forDevice(dev::DeviceId::Gtx285,
                                                  wl::Workload::mmm());
    plot::Axis x{"arithmetic intensity (ops/byte)", true, {}};
    plot::Axis y{"attainable Gops/s", true, {}};
    plot::AsciiChart chart("GTX285 roofline (MMM calibration point)", x,
                           y);
    plot::Series roof("roofline");
    for (double i = 0.05; i <= 64.0; i *= 1.5)
        roof.add(i, r285.attainable(i).value());
    plot::Series marks("workloads", plot::LineStyle::Points);
    for (const wl::Workload &w :
         {wl::Workload::blackScholes(), wl::Workload::fft(64),
          wl::Workload::fft(1024), wl::Workload::mmm()})
        marks.add(w.intensity(), r285.attainable(w).value());
    chart.add(roof);
    chart.add(marks);
    std::cout << chart.render();
    std::cout << "\nEvery measured calibration point sits on the "
                 "compute side of its device's\nridge — the Section 5 "
                 "requirement that makes the (mu, phi) derivation "
                 "valid.\n";
    return 0;
}
