/** @file Budget-elasticity tables: which budget a designer should buy
 *  more of, per organization, workload and node — the quantitative form
 *  of the dashed/solid/unconnected line classification. */

#include <iostream>

#include "core/sensitivity.hh"
#include "util/format.hh"
#include "util/table.hh"

namespace {

using namespace hcm;

void
table(const wl::Workload &w, double f, double node_nm)
{
    const itrs::NodeParams &node = itrs::nodeParams(node_nm);
    core::Budget budget = core::makeBudget(node, w);
    TextTable t("Speedup elasticity per budget: " + w.name() + ", f=" +
                fmtFixed(f, 2) + ", " + node.label() +
                " (d log S / d log X)");
    t.setHeaders({"Organization", "area", "power", "bandwidth",
                  "dominant", "optimizer limiter"});
    for (const core::Organization &org : core::paperOrganizations(w)) {
        core::DesignPoint dp = core::optimize(org, f, budget);
        if (!dp.feasible)
            continue;
        core::BudgetSensitivity s =
            core::budgetSensitivity(org, f, budget);
        t.addRow({org.name, fmtFixed(s.area, 3), fmtFixed(s.power, 3),
                  fmtFixed(s.bandwidth, 3),
                  core::limiterName(s.dominant()),
                  core::limiterName(dp.limiter)});
    }
    std::cout << t << "\n";
}

} // namespace

int
main()
{
    table(wl::Workload::fft(1024), 0.99, 22.0);
    table(wl::Workload::mmm(), 0.99, 22.0);
    table(wl::Workload::blackScholes(), 0.9, 11.0);
    std::cout << "Reading: bandwidth-limited HETs return ~1:1 on extra "
                 "bandwidth and nothing on\narea; the power-limited "
                 "CMPs return on power. Buying the wrong budget buys\n"
                 "nothing — the actionable form of the paper's "
                 "line-style classification.\n";
    return 0;
}
