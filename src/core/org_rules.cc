#include "org_rules.hh"

#include <cmath>

#include "util/logging.hh"

namespace hcm {
namespace core {

OrgRules::OrgRules(const Organization &org)
{
    switch (org.kind) {
      case OrgKind::SymmetricCmp:
        form_ = CoresForm{};
        return;
      case OrgKind::AsymmetricCmp:
        form_ = OffloadForm{UCoreParams{1.0, 1.0}, false};
        return;
      case OrgKind::Heterogeneous:
        form_ = OffloadForm{org.ucore, org.bandwidthExempt};
        return;
      case OrgKind::DynamicCmp:
        form_ = DynamicForm{};
        return;
    }
    hcm_panic("bad organization kind");
}

bool
OrgRules::bandwidthExempt() const
{
    const OffloadForm *offload = std::get_if<OffloadForm>(&form_);
    return offload && offload->bandwidthExempt;
}

ParallelRows
OrgRules::rows(double r, const Budget &budget, double alpha) const
{
    return visit([&](const auto &form) {
        return form.rowsAt(form.budgetRows(budget), form.size(r, alpha));
    });
}

double
OrgRules::speedup(double f, double r, double n) const
{
    if (coreAlone(f))
        return model::perfSeq(r);
    return visit([&](const auto &form) { return form.speedup(f, r, n); });
}

double
OrgRules::wholeTileN(double r, double n) const
{
    return visit([&](const auto &form) {
        // No area here reads alpha; any value serves.
        CoreSize core = form.size(r, model::kDefaultAlpha);
        return form.areaOf(core, std::floor(form.tiles(core, n)));
    });
}

} // namespace core
} // namespace hcm
