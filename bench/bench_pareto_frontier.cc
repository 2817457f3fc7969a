/** @file Prints the speedup/energy Pareto frontier at 22nm and 11nm for
 *  each workload: the designer's actual menu once both Section 6
 *  objectives (performance, energy) are on the table. */

#include <iostream>

#include "core/pareto.hh"
#include "plot/ascii_chart.hh"
#include "util/format.hh"
#include "util/table.hh"

namespace {

using namespace hcm;

void
frontierTable(const wl::Workload &w, double f, double node_nm)
{
    const itrs::NodeParams &node = itrs::nodeParams(node_nm);
    auto all = core::enumerateDesigns(w, f, node);
    auto frontier = core::paretoFrontier(all);

    TextTable t("Pareto frontier: " + w.name() + ", f=" + fmtFixed(f, 3) +
                ", " + node.label() + "  (" +
                std::to_string(frontier.size()) + " of " +
                std::to_string(all.size()) + " designs survive)");
    t.setHeaders({"Organization", "r", "speedup", "energy (BCE@40nm)",
                  "limiter"});
    for (const core::ParetoPoint &p : frontier) {
        t.addRow({p.orgName, fmtSig(p.design.r, 3),
                  fmtSig(p.design.speedup, 4),
                  fmtSig(p.energyNormalized, 3),
                  core::limiterName(p.design.limiter)});
    }
    std::cout << t << "\n";

    // Scatter of the whole design space with the frontier overlaid.
    plot::Axis x{"speedup", false, {}};
    plot::Axis y{"energy (normalized)", false, {}};
    plot::AsciiChart chart("design space (" + w.name() + ", f=" +
                           fmtFixed(f, 2) + ", " + node.label() + ")",
                           x, y);
    plot::Series cloud("all designs", plot::LineStyle::Points);
    for (const core::ParetoPoint &p : all)
        cloud.add(p.design.speedup, p.energyNormalized);
    plot::Series front("frontier");
    for (const core::ParetoPoint &p : frontier)
        front.add(p.design.speedup, p.energyNormalized);
    chart.add(cloud);
    chart.add(front);
    std::cout << chart.render() << "\n";
}

} // namespace

int
main()
{
    frontierTable(wl::Workload::mmm(), 0.99, 22.0);
    frontierTable(wl::Workload::fft(1024), 0.99, 11.0);
    frontierTable(wl::Workload::blackScholes(), 0.9, 11.0);
    std::cout << "Reading: U-cores own both ends of every frontier — "
                 "CMP designs are dominated\noutright once energy "
                 "counts, the sharpest form of the paper's conclusion "
                 "4.\n";
    return 0;
}
