/** @file The paper's own validity check ("we are pursuing further
 *  studies using older devices; data already collected from 55nm/65nm
 *  devices support the same conclusions", Section 6.3): treat the
 *  GTX285 (55nm, 2008) as the known device and predict the next
 *  generation's U-core parameters under the model's scaling
 *  assumptions, then compare against the measured GTX480 (40nm, 2010).
 *
 *  Prediction rules: mu is area-normalized, so an unchanged
 *  microarchitecture keeps mu constant across a shrink; phi scales with
 *  the ITRS relative power per transistor (one Table 6 step, 0.75x). */

#include <iostream>

#include "core/calibration.hh"
#include "util/format.hh"
#include "util/table.hh"

int
main()
{
    using namespace hcm;
    const auto &calib = core::BceCalibration::standard();
    constexpr double kOneStepPower = 0.75; // Table 6: 40nm -> 32nm step

    TextTable t("GTX285 (55nm) -> GTX480 (40nm): predicted vs measured "
                "U-core parameters");
    t.setHeaders({"Workload", "phi_285", "phi_480 predicted",
                  "phi_480 measured", "error", "mu_285", "mu_480",
                  "mu ratio"});
    for (const wl::Workload &w :
         {wl::Workload::mmm(), wl::Workload::fft(64),
          wl::Workload::fft(1024), wl::Workload::fft(16384)}) {
        auto old_gen = calib.deriveUCore(dev::DeviceId::Gtx285, w);
        auto new_gen = calib.deriveUCore(dev::DeviceId::Gtx480, w);
        if (!old_gen || !new_gen)
            continue;
        double predicted = old_gen->phi * kOneStepPower;
        t.addRow({w.name(), fmtSig(old_gen->phi, 3),
                  fmtSig(predicted, 3), fmtSig(new_gen->phi, 3),
                  fmtPercent(predicted / new_gen->phi - 1.0, 1),
                  fmtSig(old_gen->mu, 3), fmtSig(new_gen->mu, 3),
                  fmtSig(new_gen->mu / old_gen->mu, 3)});
    }
    std::cout << t;
    std::cout <<
        "\nReading: the power-per-transistor scaling rule predicts the "
        "Fermi generation's\nphi within a few percent on FFT-1024 and "
        "FFT-16384 (0.47 and 0.68 predicted vs\n0.47 and 0.66 measured) "
        "— the model's forward power scaling is sound. The mu\ncolumn "
        "shows what scaling cannot predict: software maturity. The "
        "GTX480's\narea-normalized throughput *regressed* vs the GTX285 "
        "(the paper itself flags the\n27% CUBLAS surprise), a "
        "microarchitecture/tuning effect outside any\ntechnology "
        "model — exactly why the paper ties its validity to assumption "
        "(1),\n\"microarchitectures do not change substantially\".\n";
    return 0;
}
