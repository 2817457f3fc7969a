#include "optimizer_batch.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/logging.hh"
#include "util/math.hh"

#if defined(__has_include)
#if __has_include(<experimental/simd>)
#include <experimental/simd>
#define HCM_HAVE_STD_SIMD 1
#endif
#endif

namespace hcm {
namespace core {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();

/** Grid sizes up to this use a stack buffer for the value pass. */
constexpr std::size_t kInlineGrid = 64;

/** Test override installed by detail::forceBatchKernelForTest(). */
const BatchKernel *g_forced_kernel = nullptr;

/**
 * Startup self-check: the SIMD pass must reproduce the scalar pass
 * bit-for-bit on a probe table covering assorted magnitudes, masked
 * lanes, and a non-lane-multiple length. IEEE divide/add/select are
 * correctly rounded, so any mismatch means a broken vector math
 * environment — fall back rather than ship wrong lanes.
 */
bool
simdPassMatchesScalar()
{
    constexpr std::size_t n = 23; // deliberately not a lane multiple
    double sqrt_r[n], par_perf[n], feas[n], scalar_val[n], simd_val[n];
    for (std::size_t i = 0; i < n; ++i) {
        sqrt_r[i] = std::sqrt(1.0 + static_cast<double>(i));
        par_perf[i] = (i % 5 == 3) ? 1e-3
                                   : 2.5 * static_cast<double>(i) + 0.75;
        feas[i] = (i % 7 == 2) ? 0.0 : 1.0;
    }
    for (double f : {0.5, 0.999, 1.0}) {
        detail::speedupValuePassScalar(sqrt_r, par_perf, feas, f,
                                       scalar_val, n);
        detail::speedupValuePassSimd(sqrt_r, par_perf, feas, f,
                                     simd_val, n);
        if (std::memcmp(scalar_val, simd_val, sizeof(scalar_val)) != 0)
            return false;
    }
    return true;
}

BatchKernel
resolveBatchKernel()
{
    if (!batchSimdCompiledIn())
        return BatchKernel::Scalar;
    if (!simdPassMatchesScalar()) {
        hcm_warn("batch SIMD pass disagrees with the scalar pass on the "
                 "probe table; falling back to scalar");
        return BatchKernel::Scalar;
    }
    return BatchKernel::Simd;
}

} // namespace

bool
batchSimdCompiledIn()
{
#ifdef HCM_HAVE_STD_SIMD
    return true;
#else
    return false;
#endif
}

BatchKernel
batchKernelInUse()
{
    if (g_forced_kernel)
        return *g_forced_kernel;
    static const BatchKernel kernel = resolveBatchKernel();
    return kernel;
}

namespace detail {

void
speedupValuePassScalar(const double *sqrt_r, const double *par_perf,
                       const double *feas, double f, double *val,
                       std::size_t count)
{
    const double one_minus_f = 1.0 - f;
    for (std::size_t i = 0; i < count; ++i) {
        // Identical expression tree to model::combine(): serial time
        // (1-f)/perf_seq plus parallel time f/perf_par, inverted.
        double s = 1.0 / (one_minus_f / sqrt_r[i] + f / par_perf[i]);
        val[i] = feas[i] != 0.0 ? s : kNegInf;
    }
}

#ifdef HCM_HAVE_STD_SIMD

void
speedupValuePassSimd(const double *sqrt_r, const double *par_perf,
                     const double *feas, double f, double *val,
                     std::size_t count)
{
    namespace stdx = std::experimental;
    using vd = stdx::native_simd<double>;
    const std::size_t width = vd::size();
    const vd one_minus_f(1.0 - f);
    const vd vf(f);
    const vd one(1.0);
    std::size_t i = 0;
    for (; i + width <= count; i += width) {
        vd sq, pp, fe;
        sq.copy_from(sqrt_r + i, stdx::element_aligned);
        pp.copy_from(par_perf + i, stdx::element_aligned);
        fe.copy_from(feas + i, stdx::element_aligned);
        vd s = one / (one_minus_f / sq + vf / pp);
        stdx::where(fe == 0.0, s) = vd(kNegInf);
        s.copy_to(val + i, stdx::element_aligned);
    }
    speedupValuePassScalar(sqrt_r + i, par_perf + i, feas + i, f,
                           val + i, count - i);
}

#else

void
speedupValuePassSimd(const double *, const double *, const double *,
                     double, double *, std::size_t)
{
    hcm_panic("batch SIMD pass not compiled in");
}

#endif

void
forceBatchKernelForTest(const BatchKernel *kernel)
{
    g_forced_kernel = kernel;
}

} // namespace detail

namespace {

/** Table 1's bound and the parallel performance at one core size. */
struct Candidate
{
    CoreSize core;
    ParallelBound bound;
    double parPerf = 0.0;
};

/** Candidate @p r under @p form, given the form's budget rows. */
template <typename Form>
Candidate
candidateAt(const Form &form, const ParallelRows &base, double r,
            double area, double alpha)
{
    CoreSize core = form.size(r, alpha);
    ParallelBound bound = parallelBound(area, form.rowsAt(base, core));
    return {core, bound, parallelPerf(form, core, bound.n)};
}

/**
 * The combine() expression of model::speedup*, or sqrt(r) where the
 * rules short-circuit f == 0 (Cores reach combine() even at f == 0,
 * exactly like speedupSymmetric()).
 */
double
speedupOf(const OrgRules &rules, double sqrt_r, double par_perf, double f)
{
    if (rules.coreAlone(f))
        return sqrt_r;
    double serial_time = (1.0 - f) / sqrt_r;
    double parallel_time = f > 0.0 ? f / par_perf : 0.0;
    return 1.0 / (serial_time + parallel_time);
}

/** designEnergy()'s expressions; @p pow_serial is pow(sqrt r, alpha). */
EnergyBreakdown
energyOf(const OrgRules &rules, const CoreSize &core, double n,
         double par_perf, double f, double pow_serial)
{
    EnergyBreakdown e;
    e.serial = (1.0 - f) / core.perf * pow_serial;
    if (f > 0.0)
        e.parallel = rules.visit([&](const auto &form) {
            return form.parallelEnergy(f, core, n, par_perf);
        });
    return e;
}

} // namespace

BatchEvaluator::BatchEvaluator(const Organization &org,
                               const Budget &budget,
                               const OptimizerOptions &opts)
{
    assign(org, budget, opts);
}

void
BatchEvaluator::assign(const Organization &org, const Budget &budget,
                       const OptimizerOptions &opts)
{
    budget.check();
    if (org.isHet())
        org.ucore.check();

    rules_ = OrgRules(org);
    budget_ = budget;
    opts_ = opts;

    // The dynamic CMP has no independent r: its grid is empty, and
    // best() routes it to optimizeDynamicCmp().
    cap_ = rules_.isDynamic()
               ? 0.0
               : std::min(opts.rMax, serialRCap(budget, opts.alpha));
    rCandidateGridInto(cap_, r_);
    const std::size_t g = r_.size();
    sqrtR_.resize(g);
    density_.resize(g);
    n_.resize(g);
    parPerf_.resize(g);
    feasGeom_.resize(g);
    feasHead_.resize(g);
    limiter_.resize(g);

    // The form dispatch is hoisted out of the loop: each element runs
    // the form's own rules, the same expressions the scalar oracle
    // evaluates.
    const double area = budget.area;
    const double alpha = opts.alpha;
    rules_.visit([&](const auto &form) {
        const ParallelRows base = form.budgetRows(budget);
        base_ = base;
        for (std::size_t i = 0; i < g; ++i) {
            Candidate c = candidateAt(form, base, r_[i], area, alpha);
            sqrtR_[i] = c.core.perf;
            density_[i] = c.core.density;
            n_[i] = c.bound.n;
            parPerf_[i] = c.parPerf;
            limiter_[i] = static_cast<unsigned char>(c.bound.limiter);
        }
    });
    for (std::size_t i = 0; i < g; ++i) {
        bool geom = n_[i] >= r_[i];
        feasGeom_[i] = geom ? 1.0 : 0.0;
        feasHead_[i] =
            geom && OrgRules::hasHeadroom(r_[i], n_[i]) ? 1.0 : 0.0;
    }

    // The MinEnergy selection scans every candidate's energy, so its
    // pow() leaves the per-f path here; MaxSpeedup defers energy to the
    // single winning candidate instead and skips this table entirely.
    if (opts.objective == Objective::MinEnergy) {
        powSerial_.resize(g);
        for (std::size_t i = 0; i < g; ++i)
            powSerial_[i] = std::pow(sqrtR_[i], opts.alpha);
    } else {
        powSerial_.clear();
    }
}

const std::vector<double> &
BatchEvaluator::feasMask(double f) const
{
    return rules_.needsHeadroom(f) ? feasHead_ : feasGeom_;
}

double
BatchEvaluator::speedupAt(std::size_t i, double f) const
{
    return speedupOf(rules_, sqrtR_[i], parPerf_[i], f);
}

EnergyBreakdown
BatchEvaluator::energyAt(std::size_t i, double f) const
{
    double pow_serial = powSerial_.empty()
                            ? std::pow(sqrtR_[i], opts_.alpha)
                            : powSerial_[i];
    return energyOf(rules_, {r_[i], sqrtR_[i], density_[i]}, n_[i],
                    parPerf_[i], f, pow_serial);
}

DesignPoint
BatchEvaluator::best(double f) const
{
    hcm_assert(f >= 0.0 && f <= 1.0, "fraction outside [0,1]");

    if (rules_.isDynamic())
        return optimizeDynamicCmp(dynamicCmp(), f, budget_, opts_);

    DesignPoint best;
    best.f = f;
    const std::size_t g = r_.size();
    if (g == 0)
        return best; // serial bounds reject even a single-BCE core

    const std::vector<double> &feas = feasMask(f);

    double inline_buf[kInlineGrid];
    std::vector<double> heap_buf;
    double *val = inline_buf;
    if (g > kInlineGrid) {
        heap_buf.resize(g);
        val = heap_buf.data();
    }

    std::size_t best_idx = 0;
    bool found = false;
    if (opts_.objective == Objective::MaxSpeedup) {
        if (f > 0.0) {
            if (batchKernelInUse() == BatchKernel::Simd)
                detail::speedupValuePassSimd(sqrtR_.data(),
                                             parPerf_.data(), feas.data(),
                                             f, val, g);
            else
                detail::speedupValuePassScalar(sqrtR_.data(),
                                               parPerf_.data(),
                                               feas.data(), f, val, g);
        } else {
            for (std::size_t i = 0; i < g; ++i)
                val[i] = feas[i] != 0.0 ? speedupAt(i, f) : kNegInf;
        }
        // First-wins argmax == the scalar loop's strict `better()`.
        double top = kNegInf;
        for (std::size_t i = 0; i < g; ++i) {
            if (val[i] > top) {
                top = val[i];
                best_idx = i;
                found = true;
            }
        }
    } else {
        double low = kPosInf;
        for (std::size_t i = 0; i < g; ++i) {
            if (feas[i] == 0.0)
                continue;
            EnergyBreakdown e = energyAt(i, f);
            double total = e.total();
            if (total < low) {
                low = total;
                best_idx = i;
                found = true;
            }
        }
    }
    if (!found)
        return best;

    best.r = r_[best_idx];
    best.n = n_[best_idx];
    best.limiter = static_cast<Limiter>(limiter_[best_idx]);
    best.speedup = speedupAt(best_idx, f);
    best.energy = energyAt(best_idx, f);
    best.feasible = true;

    if (opts_.continuousR)
        refineContinuous(best_idx, f, best);
    return best;
}

void
BatchEvaluator::evaluateAll(double f, std::vector<DesignPoint> &out) const
{
    hcm_assert(f >= 0.0 && f <= 1.0, "fraction outside [0,1]");
    hcm_assert(!rules_.isDynamic(), "dynamic CMP has no candidate grid");
    const std::vector<double> &feas = feasMask(f);
    for (std::size_t i = 0; i < r_.size(); ++i) {
        if (feas[i] == 0.0)
            continue;
        DesignPoint dp;
        dp.f = f;
        dp.r = r_[i];
        dp.n = n_[i];
        dp.limiter = static_cast<Limiter>(limiter_[i]);
        dp.speedup = speedupAt(i, f);
        dp.energy = energyAt(i, f);
        dp.feasible = true;
        out.push_back(dp);
    }
}

bool
BatchEvaluator::evaluateContinuous(double r, double f,
                                   DesignPoint &dp) const
{
    // Bit-exact twin of the oracle's evaluateAtR(): the same candidate,
    // feasibility, speedup, and energy expressions at an arbitrary r.
    Candidate c = rules_.visit([&](const auto &form) {
        return candidateAt(form, base_, r, budget_.area, opts_.alpha);
    });
    if (c.bound.n < r)
        return false;
    if (rules_.needsHeadroom(f) && !OrgRules::hasHeadroom(r, c.bound.n))
        return false;
    dp.f = f;
    dp.r = r;
    dp.n = c.bound.n;
    dp.limiter = c.bound.limiter;
    dp.speedup = speedupOf(rules_, c.core.perf, c.parPerf, f);
    dp.energy = energyOf(rules_, c.core, c.bound.n, c.parPerf, f,
                         std::pow(c.core.perf, opts_.alpha));
    dp.feasible = true;
    return true;
}

void
BatchEvaluator::refineContinuous(std::size_t best_idx, double f,
                                 DesignPoint &best) const
{
    // Bracket the golden-section search to the grid neighborhood of the
    // discrete argmax: the objective's -1e300 infeasibility plateau
    // breaks unimodality over [1, cap], but between the argmax's grid
    // neighbors the feasible region is a single interval.
    double lo = r_[best_idx > 0 ? best_idx - 1 : 0];
    double hi = r_[std::min(best_idx + 1, r_.size() - 1)];
    if (hi <= lo)
        return;
    auto objective_value = [&](double r) {
        DesignPoint dp;
        if (!evaluateContinuous(r, f, dp))
            return -1e300;
        return opts_.objective == Objective::MaxSpeedup
                   ? dp.speedup
                   : -dp.energy.total();
    };
    double r_star = goldenMax(objective_value, lo, hi, 1e-6);
    DesignPoint dp;
    if (!evaluateContinuous(r_star, f, dp))
        return;
    bool improves = opts_.objective == Objective::MaxSpeedup
                        ? dp.speedup > best.speedup
                        : dp.energy.total() < best.energy.total();
    if (improves)
        best = dp;
}

} // namespace core
} // namespace hcm
