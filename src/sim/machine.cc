#include "machine.hh"

#include <cmath>

#include "amdahl/pollack.hh"
#include "core/org_rules.hh"
#include "util/logging.hh"

namespace hcm {
namespace sim {

void
Machine::check() const
{
    hcm_assert(serialPerf > 0.0, "serial perf must be positive");
    hcm_assert(serialPower > 0.0, "serial power must be positive");
    hcm_assert(tilePerf > 0.0, "tile perf must be positive");
    hcm_assert(tilePower >= 0.0, "tile power must be non-negative");
    hcm_assert(bandwidth > 0.0, "bandwidth must be positive");
}

Machine
Machine::fromDesign(const core::Organization &org,
                    const core::DesignPoint &design,
                    const core::Budget &budget, double alpha)
{
    hcm_assert(design.feasible, "cannot simulate an infeasible design");
    Machine m;
    m.name = org.name;
    m.serialPerf = model::perfSeq(design.r);
    m.serialPower = model::powerSeq(design.r, alpha);
    m.bandwidth = budget.bandwidth;

    core::OrgRules rules(org);
    rules.visit([&](const auto &form) {
        core::CoreSize core = form.size(design.r, alpha);
        m.tiles = static_cast<std::size_t>(
            std::floor(form.tiles(core, design.n)));
        m.tilePerf = form.tilePerf(core);
        m.tilePower = form.tilePower(core, alpha);
    });
    if (rules.bandwidthExempt())
        m.bandwidth = std::numeric_limits<double>::infinity();
    hcm_assert(m.tiles >= 1, "design rounds to zero tiles");
    m.check();
    return m;
}

} // namespace sim
} // namespace hcm
