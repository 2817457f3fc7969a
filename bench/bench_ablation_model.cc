/** @file Ablation study over the model's own design choices (the knobs
 *  DESIGN.md calls out): the discrete r <= 16 sweep vs continuous r,
 *  the serial power exponent alpha, and the BCE power calibration that
 *  converts the 100 W budget into BCE units. Reported as the effect on
 *  the headline FFT-1024 / MMM projections. */

#include <iostream>

#include "core/projection.hh"
#include "util/format.hh"
#include "util/table.hh"

namespace {

using namespace hcm;

/** Final-node ASIC and best-CMP speedups under given options. */
struct Headline
{
    double asic = 0.0;
    double cmp = 0.0;
};

Headline
headline(const wl::Workload &w, double f, core::OptimizerOptions opts,
         const core::BceCalibration &calib =
             core::BceCalibration::standard(),
         const core::Scenario &scenario = core::baselineScenario(),
         std::size_t node = 4)
{
    Headline h;
    for (const auto &series :
         core::projectAll(w, f, scenario, opts, calib)) {
        double s = series.points.at(node).design.speedup;
        if (series.org.name == "ASIC")
            h.asic = s;
        else if (!series.org.isHet())
            h.cmp = std::max(h.cmp, s);
    }
    return h;
}

void
rSweepAblation()
{
    TextTable t("Ablation 1: r-sweep discipline (FFT-1024 @11nm)");
    t.setHeaders({"f", "discrete r<=16 (paper)", "continuous r<=16",
                  "discrete r<=64"});
    for (double f : {0.5, 0.9, 0.99}) {
        core::OptimizerOptions discrete;
        core::OptimizerOptions continuous;
        continuous.continuousR = true;
        core::OptimizerOptions wide;
        wide.rMax = 64.0;
        auto w = wl::Workload::fft(1024);
        t.addRow({fmtFixed(f, 3),
                  fmtSig(headline(w, f, discrete).asic, 4),
                  fmtSig(headline(w, f, continuous).asic, 4),
                  fmtSig(headline(w, f, wide).asic, 4)});
    }
    std::cout << t << "\n";
}

void
alphaAblation()
{
    // Evaluated at 40nm: that is where P is smallest and the serial
    // power bound r^(alpha/2) <= P actually constrains the core (at
    // 11nm every alpha's cap exceeds the paper's r <= 16 sweep, so the
    // exponent is irrelevant there — itself a finding).
    TextTable t("Ablation 2: serial power exponent alpha "
                "(ASIC / best CMP at 40nm)");
    t.setHeaders({"alpha", "FFT f=0.5", "FFT f=0.99", "MMM f=0.99"});
    for (double alpha : {1.5, 1.75, 2.0, 2.25}) {
        core::Scenario scenario;
        scenario.name = "alpha-ablation";
        scenario.alpha = alpha;
        core::OptimizerOptions opts;
        auto fft = wl::Workload::fft(1024);
        auto mmm = wl::Workload::mmm();
        auto h1 = headline(fft, 0.5, opts,
                           core::BceCalibration::standard(), scenario, 0);
        auto h2 = headline(fft, 0.99, opts,
                           core::BceCalibration::standard(), scenario, 0);
        auto h3 = headline(mmm, 0.99, opts,
                           core::BceCalibration::standard(), scenario, 0);
        auto cell = [](const Headline &h) {
            return fmtSig(h.asic, 3) + " / " + fmtSig(h.cmp, 3);
        };
        t.addRow({fmtFixed(alpha, 2), cell(h1), cell(h2), cell(h3)});
    }
    std::cout << t << "\n";
}

void
bcePowerAblation()
{
    // Scale the Core i7 power entries (and thus the derived BCE watts)
    // by perturbing the power budget instead — equivalent, since only
    // the ratio P_watts / bcePower enters the model.
    TextTable t("Ablation 3: BCE power calibration +-30% "
                "(equivalently the W->BCE conversion), FFT-1024 f=0.99");
    t.setHeaders({"BCE power scale", "ASIC @11nm", "best CMP @11nm",
                  "ASIC limiter"});
    for (double scale : {0.7, 1.0, 1.3}) {
        core::Scenario scenario;
        scenario.name = "bce-power-ablation";
        scenario.powerBudgetW = 100.0 / scale;
        auto w = wl::Workload::fft(1024);
        core::OptimizerOptions opts;
        auto h = headline(w, 0.99, opts, core::BceCalibration::standard(),
                          scenario);
        std::string limiter;
        for (const auto &series :
             core::projectAll(w, 0.99, scenario, opts))
            if (series.org.name == "ASIC")
                limiter = core::limiterName(
                    series.points.back().design.limiter);
        t.addRow({fmtFixed(scale, 2), fmtSig(h.asic, 4),
                  fmtSig(h.cmp, 4), limiter});
    }
    std::cout << t << "\n";
    std::cout << "Reading: the ASIC's bandwidth-limited headline is "
                 "insensitive to the BCE-watt\ncalibration; the CMPs "
                 "(power-limited) move with it. The discrete r-sweep "
                 "costs\nnothing at high f and the alpha choice only "
                 "moves low-f results, matching the\npaper's scenario-6 "
                 "discussion.\n";
}

} // namespace

int
main()
{
    rSweepAblation();
    alphaAblation();
    bcePowerAblation();
    return 0;
}
