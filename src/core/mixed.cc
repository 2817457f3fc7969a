#include "mixed.hh"

#include <algorithm>
#include <cmath>

#include "amdahl/pollack.hh"
#include "core/projection.hh"
#include "util/logging.hh"

namespace hcm {
namespace core {

namespace {

constexpr double kEps = 1e-12;

} // namespace

std::string
slotsError(const std::vector<KernelSlot> &slots)
{
    if (slots.empty())
        return "mixed chip needs at least one slot";
    double sum = 0.0;
    for (const KernelSlot &s : slots) {
        if (!(s.fraction >= 0.0 && s.fraction <= 1.0))
            return detail::concat("slot fraction ", s.fraction,
                                  " outside [0, 1]");
        sum += s.fraction;
    }
    if (sum > 1.0 + 1e-9)
        return detail::concat("slot fractions sum to ", sum, " > 1");
    return "";
}

std::vector<double>
waterfillAreas(const std::vector<double> &fractions,
               const std::vector<double> &mus,
               const std::vector<double> &caps, double total)
{
    std::size_t k = fractions.size();
    hcm_assert(mus.size() == k && caps.size() == k,
               "waterfill vector sizes differ");
    hcm_assert(total >= 0.0, "negative area to allocate");

    // Minimizing sum f_i/(mu_i a_i) subject to sum a_i = total has the
    // KKT solution a_i ~ sqrt(f_i/mu_i); slots that would exceed their
    // cap are pinned there and the rest re-solved on the leftover area.
    std::vector<double> weight(k), areas(k, 0.0);
    std::vector<bool> pinned(k, false);
    for (std::size_t i = 0; i < k; ++i) {
        hcm_assert(mus[i] > 0.0 && caps[i] >= 0.0, "bad waterfill input");
        weight[i] = std::sqrt(fractions[i] / mus[i]);
        if (fractions[i] <= 0.0)
            pinned[i] = true; // zero demand: no area
    }

    double remaining = total;
    for (std::size_t round = 0; round < k; ++round) {
        double wsum = 0.0;
        for (std::size_t i = 0; i < k; ++i)
            if (!pinned[i])
                wsum += weight[i];
        if (wsum <= 0.0 || remaining <= 0.0)
            break;
        bool repinned = false;
        for (std::size_t i = 0; i < k; ++i) {
            if (pinned[i])
                continue;
            double proposal = remaining * weight[i] / wsum;
            if (proposal >= caps[i] - kEps) {
                areas[i] = caps[i];
                pinned[i] = true;
                remaining -= caps[i];
                repinned = true;
            }
        }
        if (repinned)
            continue;
        for (std::size_t i = 0; i < k; ++i)
            if (!pinned[i])
                areas[i] = remaining * weight[i] / wsum;
        break;
    }
    return areas;
}

KernelSlot
makeSlot(dev::DeviceId device, const wl::Workload &w, double fraction,
         const BceCalibration &calib)
{
    auto org = heterogeneous(device, w, calib);
    hcm_assert(org.has_value(), "no measurement for ",
               dev::deviceName(device), " on ", w.name());
    KernelSlot slot;
    slot.workload = w;
    slot.fraction = fraction;
    slot.ucore = org->ucore;
    slot.fabricName = org->name;
    slot.bandwidthExempt = org->bandwidthExempt;
    return slot;
}

MixedDesign
optimizeMixed(const std::vector<KernelSlot> &slots, FabricMode mode,
              const itrs::NodeParams &node, const Scenario &scenario,
              OptimizerOptions opts, const BceCalibration &calib)
{
    std::string why = slotsError(slots);
    hcm_assert(why.empty(), why);
    hcm_assert(scenario.segments.empty(), "scenario '", scenario.name,
               "' has a segment profile; mixed chips take their phases "
               "from the slots");
    double f_par = 0.0;
    std::vector<double> fractions, mus;
    for (const KernelSlot &s : slots) {
        s.ucore.check();
        f_par += s.fraction;
        fractions.push_back(s.fraction);
        mus.push_back(s.ucore.mu);
    }
    double f_ser = 1.0 - std::min(f_par, 1.0);

    // Phase-exclusive budgets per slot (bandwidth units depend on the
    // slot's workload intensity), read through the heterogeneous rows
    // of Table 1: each slot's fabric may not exceed its tightest row.
    std::vector<Budget> slot_budgets;
    std::vector<ParallelRows> rows;
    std::vector<double> caps;
    for (const KernelSlot &s : slots) {
        AppliedScenario applied =
            applyScenario(scenario, node, s.workload, opts, calib);
        slot_budgets.push_back(applied.budget);
        rows.push_back(
            ucoreRows(s.ucore, s.bandwidthExempt, applied.budget));
        caps.push_back(std::min(
            {rows.back().power, rows.back().bandwidth, rows.back().thermal}));
        opts = applied.opts; // the scenario's alpha, the same per slot
    }
    double area_budget = slot_budgets.front().area;

    // Serial bounds: the tightest across slot budgets (power is shared;
    // bandwidth differs per workload and the serial core must respect
    // each phase boundary's stream-in).
    double r_cap = opts.rMax;
    for (const Budget &b : slot_budgets)
        r_cap = std::min(r_cap, serialRCap(b, opts.alpha));

    MixedDesign best;
    for (double r : rCandidateGrid(r_cap)) {
        double fabric_area = area_budget - r;
        if (fabric_area <= kEps)
            continue;

        std::vector<double> areas(slots.size(), 0.0);
        if (mode == FabricMode::Partitioned) {
            areas = waterfillAreas(fractions, mus, caps, fabric_area);
        } else {
            // One fabric reused by every phase: its size is bounded by
            // the tightest per-phase cap and the die.
            double a = fabric_area;
            for (std::size_t i = 0; i < slots.size(); ++i)
                if (slots[i].fraction > 0.0)
                    a = std::min(a, caps[i]);
            areas.assign(slots.size(), a);
        }

        // Evaluate.
        double parallel_time = 0.0;
        bool ok = true;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (slots[i].fraction <= 0.0)
                continue;
            if (areas[i] <= kEps) {
                ok = false;
                break;
            }
            parallel_time += slots[i].fraction /
                             (slots[i].ucore.mu * areas[i]);
        }
        if (!ok)
            continue;
        double speedup =
            1.0 / (f_ser / model::perfSeq(r) + parallel_time);

        if (!best.feasible || speedup > best.speedup) {
            best.feasible = true;
            best.r = r;
            best.areas = areas;
            best.speedup = speedup;
            // A slot given less area than its rows admit is area-bound.
            best.slotLimiter.clear();
            for (std::size_t i = 0; i < slots.size(); ++i)
                best.slotLimiter.push_back(classifyLimiter(
                    areas[i] + kEps, rows[i].power, rows[i].bandwidth,
                    rows[i].thermal));
            // Energy: serial phase + per-slot f_i * phi_i / mu_i.
            best.energy = f_ser / model::perfSeq(r) *
                          model::powerSeq(r, opts.alpha);
            for (const KernelSlot &s : slots)
                if (s.fraction > 0.0)
                    best.energy += s.fraction * s.ucore.phi / s.ucore.mu;
        }
    }
    return best;
}

} // namespace core
} // namespace hcm
