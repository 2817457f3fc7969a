/** @file Reproduces the figures of the base model this paper extends —
 *  Hill & Marty, "Amdahl's Law in the Multicore Era" (IEEE Computer
 *  2008): symmetric / asymmetric / dynamic speedup versus sequential
 *  core size for n = 16 and 256 BCE chips. Validates the foundation the
 *  U-core extension is built on (no power or bandwidth bounds here, as
 *  in the original). */

#include <cmath>
#include <iostream>

#include "amdahl/multicore.hh"
#include "plot/ascii_chart.hh"
#include "util/format.hh"
#include "util/table.hh"

namespace {

using namespace hcm;

void
speedupCurves(double n)
{
    const double fs[] = {0.5, 0.9, 0.975, 0.99, 0.999};

    TextTable t("Hill-Marty speedups, n = " + fmtSig(n, 4) +
                " BCE (best over r, with argmax)");
    t.setHeaders({"f", "symmetric", "asymmetric", "dynamic"});
    for (double f : fs) {
        double best_sym = 0.0, best_asym = 0.0;
        double r_sym = 1.0, r_asym = 1.0;
        for (double r = 1.0; r <= n; r += 1.0) {
            double sym = model::speedupSymmetric(f, n, r);
            double asym = model::speedupAsymmetric(f, n, r);
            if (sym > best_sym) {
                best_sym = sym;
                r_sym = r;
            }
            if (asym > best_asym) {
                best_asym = asym;
                r_asym = r;
            }
        }
        t.addRow({fmtFixed(f, 3),
                  fmtSig(best_sym, 4) + " @r=" + fmtSig(r_sym, 3),
                  fmtSig(best_asym, 4) + " @r=" + fmtSig(r_asym, 3),
                  fmtSig(model::speedupDynamic(f, n), 4)});
    }
    std::cout << t << "\n";

    plot::Axis x{"sequential core size r (BCE)", true, {}};
    plot::Axis y{"speedup", false, {}};
    plot::AsciiChart chart("symmetric (s) vs asymmetric (a) speedup, "
                           "n = " + fmtSig(n, 4) + ", f = 0.975",
                           x, y);
    plot::Series sym("symmetric");
    plot::Series asym("asymmetric");
    for (double r = 1.0; r <= n; r *= 2.0) {
        sym.add(r, model::speedupSymmetric(0.975, n, r));
        asym.add(r, model::speedupAsymmetric(0.975, n, r));
    }
    chart.add(sym);
    chart.add(asym);
    std::cout << chart.render() << "\n";
}

} // namespace

int
main()
{
    speedupCurves(16.0);
    speedupCurves(256.0);
    std::cout << "Spot check vs the published curves: symmetric n=256, "
                 "f=0.999 at r=1 gives "
              << fmtSig(model::speedupSymmetric(0.999, 256, 1), 6)
              << " — Hill & Marty's ~204; the dynamic organization "
                 "dominates both, as in\ntheir Figure 2d.\n";
    return 0;
}
