/** @file Cross-validates the analytical model against the discrete-event
 *  chip simulator: for each paper organization and workload, build the
 *  simulated machine from the optimized 22nm design point, execute the
 *  equivalent synthetic program, and compare. Also quantifies what the
 *  model's "infinitely divisible, perfectly scheduled" assumption hides
 *  as chunk granularity coarsens. */

#include <cmath>
#include <iostream>

#include "sim/simulator.hh"
#include "util/format.hh"
#include "util/table.hh"

namespace {

using namespace hcm;

void
validateDesigns(const wl::Workload &w, double f)
{
    TextTable t("Analytic vs simulated speedup: " + w.name() + ", f=" +
                fmtFixed(f, 3) + ", 22nm, 50k chunks");
    t.setHeaders({"Organization", "analytic (cont.)",
                  "analytic (discrete tiles)", "simulated", "delta",
                  "tile util."});
    core::Budget budget = core::makeBudget(itrs::nodeParams(22.0), w);
    for (const core::Organization &org : core::paperOrganizations(w)) {
        core::DesignPoint design = core::optimize(org, f, budget);
        if (!design.feasible || design.n - design.r < 1.0) {
            t.addRow({org.name, fmtSig(design.speedup, 3),
                      "- (sub-tile fabric)", "-", "-", "-"});
            continue;
        }
        sim::Machine m = sim::Machine::fromDesign(org, design, budget);
        sim::SimStats stats =
            sim::ChipSimulator(m).run(sim::TaskGraph::amdahl(f, 50000));

        double n_discrete =
            org.kind == core::OrgKind::SymmetricCmp
                ? static_cast<double>(m.tiles) * design.r
                : design.r + static_cast<double>(m.tiles);
        double discrete =
            core::evaluateSpeedup(org, f, design.r, n_discrete);
        double simulated = stats.speedup(1.0);
        t.addRow({org.name, fmtSig(design.speedup, 4),
                  fmtSig(discrete, 4), fmtSig(simulated, 4),
                  fmtPercent(simulated / discrete - 1.0, 2),
                  fmtPercent(stats.tileUtilization(m.tiles), 1)});
    }
    std::cout << t << "\n";
}

void
granularityStudy()
{
    TextTable t("Chunk-granularity study: GTX285 MMM HET at 22nm, "
                "f=0.99 (model assumes infinite divisibility)");
    t.setHeaders({"chunks", "simulated speedup", "vs fine-grained"});
    auto w = wl::Workload::mmm();
    auto org = *core::heterogeneous(dev::DeviceId::Gtx285, w);
    core::Budget budget = core::makeBudget(itrs::nodeParams(22.0), w);
    core::DesignPoint design = core::optimize(org, 0.99, budget);
    sim::Machine m = sim::Machine::fromDesign(org, design, budget);

    const std::vector<std::size_t> counts = {32, 64, 256, 1024, 16384,
                                             262144};
    std::vector<double> speedups;
    for (std::size_t chunks : counts)
        speedups.push_back(
            sim::ChipSimulator(m)
                .run(sim::TaskGraph::amdahl(0.99, chunks))
                .speedup(1.0));
    double fine = speedups.back();
    for (std::size_t i = 0; i < counts.size(); ++i)
        t.addRow({std::to_string(counts[i]), fmtSig(speedups[i], 4),
                  fmtPercent(speedups[i] / fine, 1)});
    std::cout << t;
    std::cout << "(tiles: " << m.tiles
              << "; coarse bags leave tiles idle in the last wave — the "
                 "straggler tax the\nanalytic model ignores)\n\n";
}

void
schedulingStudy()
{
    TextTable t("Scheduling-policy study: skewed chunk bags on a "
                "16-tile GTX285-class fabric, f=0.99");
    t.setHeaders({"chunk skew", "dynamic (shared bag)",
                  "static blocking", "static penalty"});
    sim::Machine m;
    m.serialPerf = 2.0;
    m.serialPower = std::pow(4.0, 0.875);
    m.tiles = 16;
    m.tilePerf = 3.41;
    m.tilePower = 0.74;
    for (double skew : {1.0, 4.0, 16.0, 64.0, 256.0}) {
        sim::TaskGraph g =
            sim::TaskGraph::amdahlImbalanced(0.99, 128, skew, 5);
        double dyn = sim::ChipSimulator(m, sim::Schedule::DynamicGreedy)
                         .run(g).speedup(1.0);
        double sta = sim::ChipSimulator(m, sim::Schedule::StaticBlock)
                         .run(g).speedup(1.0);
        t.addRow({fmtSig(skew, 4), fmtSig(dyn, 4), fmtSig(sta, 4),
                  fmtPercent(1.0 - sta / dyn, 1)});
    }
    std::cout << t;
    std::cout << "(the analytical model's 'perfectly scheduled' "
                 "assumption is the dynamic column;\nstatic blocking "
                 "shows what naive chunk-to-tile mapping costs as "
                 "imbalance grows)\n\n";
}

} // namespace

int
main()
{
    validateDesigns(wl::Workload::mmm(), 0.99);
    validateDesigns(wl::Workload::fft(1024), 0.99);
    validateDesigns(wl::Workload::blackScholes(), 0.9);
    granularityStudy();
    schedulingStudy();
    std::cout << "Reading: with fine-grained work the simulator matches "
                 "the discrete-tile\nanalytic values to <0.5%, validating "
                 "the Table 1 + Section 3.3 pipeline; the\ncontinuous "
                 "model is an upper bound (tile rounding).\n";
    return 0;
}
