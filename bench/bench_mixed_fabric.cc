/** @file Quantifies the Section 6.3 mixing-and-matching discussion:
 *  partitioned custom-logic + flexible fabrics vs single-fabric chips,
 *  across nodes, for a 50% MMM / 45% FFT / 5% serial application. */

#include <iostream>

#include "core/mixed.hh"
#include "util/format.hh"
#include "util/table.hh"

int
main()
{
    using namespace hcm;
    using core::FabricMode;
    using core::KernelSlot;
    using core::makeSlot;

    auto mmm = wl::Workload::mmm();
    auto fft = wl::Workload::fft(1024);
    double f_mmm = 0.50, f_fft = 0.45;

    struct Candidate
    {
        std::string name;
        std::vector<KernelSlot> slots;
        FabricMode mode;
    };
    const std::vector<Candidate> candidates = {
        {"ASIC(MMM)+GTX285(FFT) part.",
         {makeSlot(dev::DeviceId::Asic, mmm, f_mmm),
          makeSlot(dev::DeviceId::Gtx285, fft, f_fft)},
         FabricMode::Partitioned},
        {"ASIC(MMM)+LX760(FFT) part.",
         {makeSlot(dev::DeviceId::Asic, mmm, f_mmm),
          makeSlot(dev::DeviceId::Lx760, fft, f_fft)},
         FabricMode::Partitioned},
        {"ASIC both, partitioned",
         {makeSlot(dev::DeviceId::Asic, mmm, f_mmm),
          makeSlot(dev::DeviceId::Asic, fft, f_fft)},
         FabricMode::Partitioned},
        {"GTX285 shared",
         {makeSlot(dev::DeviceId::Gtx285, mmm, f_mmm),
          makeSlot(dev::DeviceId::Gtx285, fft, f_fft)},
         FabricMode::Shared},
        {"LX760 shared",
         {makeSlot(dev::DeviceId::Lx760, mmm, f_mmm),
          makeSlot(dev::DeviceId::Lx760, fft, f_fft)},
         FabricMode::Shared},
    };

    TextTable t("Mixed-fabric study: 50% MMM + 45% FFT-1024 + 5% serial "
                "(speedup vs 1 BCE)");
    std::vector<std::string> headers = {"Chip"};
    for (const auto &node : itrs::nodeTable())
        headers.push_back(node.label());
    t.setHeaders(headers);

    for (const Candidate &c : candidates) {
        std::vector<std::string> row = {c.name};
        for (const auto &node : itrs::nodeTable()) {
            core::MixedDesign d = core::optimizeMixed(c.slots, c.mode,
                                                      node);
            row.push_back(d.feasible ? fmtSig(d.speedup, 3)
                                     : "infeasible");
        }
        t.addRow(row);
    }
    std::cout << t;
    std::cout << "\nThe partitioned ASIC+flexible chip tracks the "
                 "all-ASIC chip within a few\npercent while the FFT "
                 "slot is bandwidth-limited anyway — the paper's "
                 "argument\nfor spending custom logic only where "
                 "arithmetic intensity rewards it.\n";
    return 0;
}
