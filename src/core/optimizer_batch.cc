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

    kind_ = org.kind;
    mu_ = org.ucore.mu;
    phi_ = org.ucore.phi;
    budget_ = budget;
    opts_ = opts;
    alphaHalfM1_ = opts.alpha / 2.0 - 1.0;

    if (kind_ == OrgKind::DynamicCmp) {
        // No independent r: best() routes to optimizeDynamicCmp().
        r_.clear();
        sqrtR_.clear();
        n_.clear();
        parPerf_.clear();
        powSym_.clear();
        powSerial_.clear();
        feasGeom_.clear();
        feasHead_.clear();
        limiter_.clear();
        return;
    }

    cap_ = std::min(opts.rMax, serialRCap(budget, opts.alpha));
    rCandidateGridInto(cap_, r_);
    const std::size_t g = r_.size();
    sqrtR_.resize(g);
    n_.resize(g);
    parPerf_.resize(g);
    feasGeom_.resize(g);
    feasHead_.resize(g);
    limiter_.resize(g);

    for (std::size_t i = 0; i < g; ++i)
        sqrtR_[i] = std::sqrt(r_[i]);

    // Table 1 bound passes with the organization dispatch hoisted out
    // of the loop; every expression matches the scalar powerBoundN /
    // bandwidthBoundN / thermalBoundN / parallelBound bit-for-bit.
    const double area = budget.area;
    const double p = budget.power;
    const double b = budget.bandwidth;
    const double th = budget.thermal;
    switch (kind_) {
      case OrgKind::SymmetricCmp: {
        powSym_.resize(g);
        for (std::size_t i = 0; i < g; ++i)
            powSym_[i] = std::pow(r_[i], alphaHalfM1_);
        for (std::size_t i = 0; i < g; ++i) {
            double n_power = p / powSym_[i];
            double n_bw = b * sqrtR_[i];
            double n_thermal = th / powSym_[i];
            n_[i] = std::min({area, n_power, n_bw, n_thermal});
            limiter_[i] = static_cast<unsigned char>(
                classifyLimiter(area, n_power, n_bw, n_thermal));
            parPerf_[i] = (n_[i] / r_[i]) * sqrtR_[i];
        }
        break;
      }
      case OrgKind::AsymmetricCmp: {
        powSym_.clear();
        for (std::size_t i = 0; i < g; ++i) {
            double n_power = p + r_[i];
            double n_bw = b + r_[i];
            double n_thermal = th + r_[i];
            n_[i] = std::min({area, n_power, n_bw, n_thermal});
            limiter_[i] = static_cast<unsigned char>(
                classifyLimiter(area, n_power, n_bw, n_thermal));
            parPerf_[i] = n_[i] - r_[i];
        }
        break;
      }
      case OrgKind::Heterogeneous: {
        powSym_.clear();
        rows_ = ucoreRows(org.ucore, org.bandwidthExempt, budget);
        for (std::size_t i = 0; i < g; ++i) {
            double n_power = rows_.power + r_[i];
            double n_bw = rows_.bandwidth + r_[i];
            double n_thermal = rows_.thermal + r_[i];
            n_[i] = std::min({area, n_power, n_bw, n_thermal});
            limiter_[i] = static_cast<unsigned char>(
                classifyLimiter(area, n_power, n_bw, n_thermal));
            parPerf_[i] = mu_ * (n_[i] - r_[i]);
        }
        break;
      }
      case OrgKind::DynamicCmp:
        hcm_panic("unreachable: dynamic handled above");
    }

    for (std::size_t i = 0; i < g; ++i) {
        bool geom = n_[i] >= r_[i];
        feasGeom_[i] = geom ? 1.0 : 0.0;
        feasHead_[i] =
            geom && n_[i] - r_[i] >= kMinParallelHeadroom ? 1.0 : 0.0;
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
    bool need_headroom = f > 0.0 && (kind_ == OrgKind::AsymmetricCmp ||
                                     kind_ == OrgKind::Heterogeneous);
    return need_headroom ? feasHead_ : feasGeom_;
}

double
BatchEvaluator::speedupAt(std::size_t i, double f) const
{
    // model::perfSeq short-circuit for f == 0 asymmetric/heterogeneous;
    // everything else goes through the combine() expression (symmetric
    // reaches it even at f == 0, exactly like speedupSymmetric()).
    if (f <= 0.0 && kind_ != OrgKind::SymmetricCmp)
        return sqrtR_[i];
    double serial_time = (1.0 - f) / sqrtR_[i];
    double parallel_time = f > 0.0 ? f / parPerf_[i] : 0.0;
    return 1.0 / (serial_time + parallel_time);
}

EnergyBreakdown
BatchEvaluator::energyAt(std::size_t i, double f) const
{
    EnergyBreakdown e;
    double serial_perf = sqrtR_[i];
    double pow_serial = powSerial_.empty()
                            ? std::pow(serial_perf, opts_.alpha)
                            : powSerial_[i];
    e.serial = (1.0 - f) / serial_perf * pow_serial;
    if (f <= 0.0)
        return e;
    switch (kind_) {
      case OrgKind::SymmetricCmp: {
        double power_par = n_[i] * powSym_[i];
        e.parallel = f / parPerf_[i] * power_par;
        break;
      }
      case OrgKind::AsymmetricCmp:
        e.parallel = f;
        break;
      case OrgKind::Heterogeneous:
        e.parallel = f * phi_ / mu_;
        break;
      case OrgKind::DynamicCmp:
        hcm_panic("unreachable: dynamic has no grid");
    }
    return e;
}

DesignPoint
BatchEvaluator::best(double f) const
{
    hcm_assert(f >= 0.0 && f <= 1.0, "fraction outside [0,1]");

    if (kind_ == OrgKind::DynamicCmp) {
        Organization dyn;
        dyn.kind = OrgKind::DynamicCmp;
        return optimizeDynamicCmp(dyn, f, budget_, opts_);
    }

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
    hcm_assert(kind_ != OrgKind::DynamicCmp,
               "dynamic CMP has no candidate grid");
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
    // Bit-exact twin of the oracle's evaluateAtR(): same bound,
    // feasibility, speedup, and energy expressions at an arbitrary r.
    double n_power = 0.0;
    double n_bw = 0.0;
    double n_thermal = 0.0;
    switch (kind_) {
      case OrgKind::SymmetricCmp: {
        double pow_sym = std::pow(r, alphaHalfM1_);
        n_power = budget_.power / pow_sym;
        n_bw = budget_.bandwidth * std::sqrt(r);
        n_thermal = budget_.thermal / pow_sym;
        break;
      }
      case OrgKind::AsymmetricCmp:
        n_power = budget_.power + r;
        n_bw = budget_.bandwidth + r;
        n_thermal = budget_.thermal + r;
        break;
      case OrgKind::Heterogeneous:
        n_power = rows_.power + r;
        n_bw = rows_.bandwidth + r;
        n_thermal = rows_.thermal + r;
        break;
      case OrgKind::DynamicCmp:
        hcm_panic("unreachable: dynamic has no grid");
    }
    double n = std::min({budget_.area, n_power, n_bw, n_thermal});
    if (n < r)
        return false;
    bool need_headroom = f > 0.0 && (kind_ == OrgKind::AsymmetricCmp ||
                                     kind_ == OrgKind::Heterogeneous);
    if (need_headroom && n - r < kMinParallelHeadroom)
        return false;

    double sqrt_r = std::sqrt(r);
    dp.f = f;
    dp.r = r;
    dp.n = n;
    dp.limiter = classifyLimiter(budget_.area, n_power, n_bw, n_thermal);

    double par_perf = 0.0;
    switch (kind_) {
      case OrgKind::SymmetricCmp:
        par_perf = (n / r) * sqrt_r;
        break;
      case OrgKind::AsymmetricCmp:
        par_perf = n - r;
        break;
      case OrgKind::Heterogeneous:
        par_perf = mu_ * (n - r);
        break;
      case OrgKind::DynamicCmp:
        break;
    }
    if (f <= 0.0 && kind_ != OrgKind::SymmetricCmp) {
        dp.speedup = sqrt_r;
    } else {
        double serial_time = (1.0 - f) / sqrt_r;
        double parallel_time = f > 0.0 ? f / par_perf : 0.0;
        dp.speedup = 1.0 / (serial_time + parallel_time);
    }

    EnergyBreakdown e;
    e.serial = (1.0 - f) / sqrt_r * std::pow(sqrt_r, opts_.alpha);
    if (f > 0.0) {
        switch (kind_) {
          case OrgKind::SymmetricCmp: {
            double power_par = n * std::pow(r, alphaHalfM1_);
            e.parallel = f / par_perf * power_par;
            break;
          }
          case OrgKind::AsymmetricCmp:
            e.parallel = f;
            break;
          case OrgKind::Heterogeneous:
            e.parallel = f * phi_ / mu_;
            break;
          case OrgKind::DynamicCmp:
            break;
        }
    }
    dp.energy = e;
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
