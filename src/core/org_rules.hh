/**
 * @file
 * Each chip organization's rules, stated once. The paper models every
 * chip as a sequential core of size r plus a parallel fabric, and
 * Table 1's organizations take one of three forms:
 *
 *  - Cores:   n/r identical cores of size r run both phases (SymCMP).
 *  - Offload: an r core runs the serial phase and is powered off while
 *             n - r BCE-sized tiles of performance mu and power phi run
 *             the parallel phase. A HET chip's tile is its U-core; the
 *             asymmetric-offload CMP's is a plain BCE, (1, 1), never
 *             bandwidth-exempt.
 *  - Dynamic: all n resources are one sqrt(n) core serially and n BCEs
 *             in parallel (Hill-Marty's upper bound).
 *
 * Each form states its Table 1 rows, its fabric (tile count and the
 * area that count fills, tile performance and power), its
 * parallel-phase energy and its speedup;
 * OrgRules adds the n - r headroom rule and the f = 0 short-circuit.
 * Bounds, the optimizer and its batch kernel, energy, profiles and
 * sim::Machine read them here; OrgKind stays for names and legends.
 * The expressions are the per-kind ones the oracle in tests/oracle
 * states, so results match it bit for bit (x / 1.0 and 1.0 * x are
 * exact).
 */

#ifndef HCM_CORE_ORG_RULES_HH
#define HCM_CORE_ORG_RULES_HH

#include <cmath>
#include <utility>
#include <variant>

#include "amdahl/multicore.hh"
#include "amdahl/pollack.hh"
#include "core/bounds.hh"

namespace hcm {
namespace core {

/** Minimum n - r an Offload design needs once there is parallel work
 *  (the optimizer and the Pareto enumerator agree through it). */
constexpr double kMinParallelHeadroom = 1e-9;

/** A sequential core of size r and the per-size values the rules read. */
struct CoreSize
{
    double r = 1.0;
    double perf = 1.0;    ///< sqrt(r), Pollack's law
    double density = 1.0; ///< r^(alpha/2 - 1); only the Cores form reads it
};

/** n/r identical cores of size r run both phases. */
struct CoresForm
{
    CoreSize size(double r, double alpha) const
    { return {r, std::sqrt(r), std::pow(r, alpha / 2.0 - 1.0)}; }
    ParallelRows budgetRows(const Budget &b) const
    { return {b.power, b.bandwidth, b.thermal}; }
    /** Each core burns r^(alpha/2) and moves sqrt(r) of traffic. */
    ParallelRows rowsAt(const ParallelRows &base, const CoreSize &c) const
    {
        return {base.power / c.density, base.bandwidth * c.perf,
                base.thermal / c.density};
    }
    double serialPerf(const CoreSize &c, double) const { return c.perf; }
    double tiles(const CoreSize &c, double n) const { return n / c.r; }
    double areaOf(const CoreSize &c, double tiles) const
    { return tiles * c.r; }
    double tilePerf(const CoreSize &c) const { return c.perf; }
    double tilePower(const CoreSize &c, double alpha) const
    { return model::powerSeq(c.r, alpha); }
    double parallelEnergy(double f, const CoreSize &c, double n,
                          double par_perf) const
    { return f / par_perf * (n * c.density); }
    double speedup(double f, double r, double n) const
    { return model::speedupSymmetric(f, n, r); }
};

/** An r core beside n - r tiles of (mu, phi); the core idles while
 *  the tiles run. */
struct OffloadForm
{
    UCoreParams tile;
    bool bandwidthExempt = false;

    CoreSize size(double r, double) const { return {r, std::sqrt(r)}; }
    ParallelRows budgetRows(const Budget &b) const
    { return ucoreRows(tile, bandwidthExempt, b); }
    ParallelRows rowsAt(const ParallelRows &base, const CoreSize &c) const
    { return {base.power + c.r, base.bandwidth + c.r, base.thermal + c.r}; }
    double serialPerf(const CoreSize &c, double) const { return c.perf; }
    double tiles(const CoreSize &c, double n) const { return n - c.r; }
    double areaOf(const CoreSize &c, double tiles) const
    { return c.r + tiles; }
    double tilePerf(const CoreSize &) const { return tile.mu; }
    double tilePower(const CoreSize &, double) const { return tile.phi; }
    double parallelEnergy(double f, const CoreSize &, double, double) const
    { return f * tile.phi / tile.mu; }
    double speedup(double f, double r, double n) const
    { return model::speedupHeterogeneous(f, n, r, tile.mu); }
};

/** All n resources fuse or split, whatever r is. */
struct DynamicForm
{
    CoreSize size(double r, double) const { return {r, std::sqrt(r)}; }
    ParallelRows budgetRows(const Budget &b) const
    { return {b.power, b.bandwidth, b.thermal}; }
    ParallelRows rowsAt(const ParallelRows &base, const CoreSize &) const
    { return base; }
    double serialPerf(const CoreSize &, double n) const
    { return model::perfSeq(n); }
    double tiles(const CoreSize &, double n) const { return n; }
    double areaOf(const CoreSize &, double tiles) const { return tiles; }
    double tilePerf(const CoreSize &) const { return 1.0; }
    double tilePower(const CoreSize &, double) const { return 1.0; }
    double parallelEnergy(double f, const CoreSize &, double, double) const
    { return f; }
    double speedup(double f, double, double n) const
    { return model::speedupDynamic(f, n); }
};

/** Parallel-phase performance: every tile of @p form's fabric busy. */
template <typename Form>
double
parallelPerf(const Form &form, const CoreSize &c, double n)
{
    return form.tiles(c, n) * form.tilePerf(c);
}

/** An organization's form, plus the rules whose shape all forms share. */
class OrgRules
{
  public:
    OrgRules() = default;
    /** The one place an OrgKind becomes rules. */
    explicit OrgRules(const Organization &org);

    /** Calls @p fn with the organization's form. */
    template <typename Fn>
    decltype(auto) visit(Fn &&fn) const
    { return std::visit(std::forward<Fn>(fn), form_); }

    bool isDynamic() const
    { return std::holds_alternative<DynamicForm>(form_); }

    /** An Offload fabric sits beside the core: once there is parallel
     *  work, a design needs hasHeadroom(r, n). */
    bool needsHeadroom(double f) const { return f > 0.0 && offloads(); }
    static bool hasHeadroom(double r, double n)
    { return n - r >= kMinParallelHeadroom; }

    /** With no parallel work an Offload chip is its core: speedup
     *  sqrt(r) exactly, not 1 / (1 / sqrt(r)). */
    bool coreAlone(double f) const { return f <= 0.0 && offloads(); }

    /** True when the fabric's traffic is exempt from the bandwidth
     *  budget (the ASIC MMM core). */
    bool bandwidthExempt() const;

    /** Table 1's parallel rows at core size @p r. */
    ParallelRows rows(double r, const Budget &budget, double alpha) const;

    /** Speedup of a design (r, n) at parallel fraction @p f. */
    double speedup(double f, double r, double n) const;

    /** The n of design (r, n) once its fabric is cut to whole tiles
     *  (the chip sim::Machine builds). */
    double wholeTileN(double r, double n) const;

  private:
    bool offloads() const
    { return std::holds_alternative<OffloadForm>(form_); }

    std::variant<CoresForm, OffloadForm, DynamicForm> form_;
};

} // namespace core
} // namespace hcm

#endif // HCM_CORE_ORG_RULES_HH
