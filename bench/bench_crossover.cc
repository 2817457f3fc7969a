/** @file Quantifies conclusion 1: the minimum parallel fraction at
 *  which each U-core fabric beats the best conventional CMP by a given
 *  margin, per workload and node — the computed version of the paper's
 *  "sufficient parallelism in excess of 90%". */

#include <iostream>

#include "core/crossover.hh"
#include "util/format.hh"
#include "util/table.hh"

namespace {

using namespace hcm;

void
crossoverTable(double target)
{
    TextTable t("Minimum f for HET >= " + fmtSig(target, 2) +
                "x the best CMP (baseline scenario)");
    std::vector<std::string> headers = {"Fabric / Workload"};
    for (const auto &node : itrs::nodeTable())
        headers.push_back(node.label());
    t.setHeaders(headers);

    const dev::DeviceId fabrics[] = {
        dev::DeviceId::Lx760, dev::DeviceId::Gtx285,
        dev::DeviceId::Gtx480, dev::DeviceId::R5870, dev::DeviceId::Asic,
    };
    for (const wl::Workload &w :
         {wl::Workload::mmm(), wl::Workload::blackScholes(),
          wl::Workload::fft(1024)}) {
        for (dev::DeviceId id : fabrics) {
            if (!dev::MeasurementDb::instance().find(id, w))
                continue;
            std::vector<std::string> row = {dev::deviceName(id) + " / " +
                                            w.name()};
            for (const auto &node : itrs::nodeTable()) {
                auto f_star = core::requiredParallelism(id, w, target,
                                                        node);
                row.push_back(f_star ? fmtFixed(*f_star, 3) : "never");
            }
            t.addRow(row);
        }
        t.addRule();
    }
    std::cout << t << "\n";
}

} // namespace

int
main()
{
    crossoverTable(1.0); // merely match the CMP
    crossoverTable(1.5); // the paper's "pronounced difference"
    crossoverTable(3.0); // a decisive win
    std::cout << "Reading: matching the CMP takes modest parallelism, "
                 "but a pronounced (1.5x)\nadvantage needs f in the "
                 "0.6-0.9 range and a decisive 3x one f >= 0.9 on\n"
                 "bandwidth-limited kernels — conclusion 1, with the "
                 "actual numbers attached.\n";
    return 0;
}
