/**
 * @file
 * Structure-of-arrays batch kernel behind optimize() and
 * enumerateDesigns(). A BatchEvaluator snapshots one (organization,
 * budget, options) triple and precomputes the whole r-candidate grid as
 * contiguous arrays — sqrt(r), the Table 1 bound minimum, the binding
 * limiter, the parallel-phase performance, and the feasibility masks —
 * so evaluating a parallel fraction f is a handful of branch-free array
 * passes instead of a per-candidate walk through parallelBound /
 * evaluateSpeedup / designEnergy. Every element reads the organization's
 * rules (core/org_rules): assign() resolves the form once and runs its
 * loop with the form known, so the dispatch, budget validation, and
 * every pow() that does not depend on f stay out of the per-candidate
 * and per-f paths; best(f) is then nearly free and can be called for a
 * whole f-grid against one table (the sweep engine does exactly that).
 *
 * Numerical contract: every element is computed by the SAME IEEE-754
 * expression the scalar oracle (the test-only optimizeScalar in
 * tests/oracle, which states each kind's rules itself on the model::
 * helpers) evaluates — subexpressions are hoisted as whole values, never
 * re-associated — so batch results are BYTE-IDENTICAL to the scalar
 * path (a 0-ULP bound, enforced by tests/core/optimizer_batch_test.cc;
 * see DESIGN.md "SoA batch kernel").
 * The optional SIMD pass only uses correctly-rounded IEEE ops
 * (divide/add/select), so it preserves bit-identity; it is verified
 * against the scalar pass at startup and falls back if it ever
 * disagrees.
 */

#ifndef HCM_CORE_OPTIMIZER_BATCH_HH
#define HCM_CORE_OPTIMIZER_BATCH_HH

#include <cstddef>
#include <vector>

#include "core/optimizer.hh"

namespace hcm {
namespace core {

/** Which implementation the batch value passes run on. */
enum class BatchKernel {
    Scalar, ///< portable loops (still auto-vectorizable)
    Simd,   ///< std::experimental::simd lanes, scalar-checked at startup
};

/** True when the SIMD pass was compiled in on this toolchain. */
bool batchSimdCompiledIn();

/**
 * The kernel the process resolved at first use: Simd when the SIMD pass
 * is compiled in and reproduces the scalar pass bit-for-bit on a probe
 * table, Scalar otherwise (with a warning on a mismatch).
 * detail::forceBatchKernelForTest() is the only way to pin one.
 */
BatchKernel batchKernelInUse();

namespace detail {

/**
 * The f > 0 speedup value pass shared by every organization kind:
 * val[i] = 1 / ((1-f)/sqrt_r[i] + f/par_perf[i]), forced to -inf where
 * feas[i] == 0.0. Exposed for the startup self-check and tests.
 */
void speedupValuePassScalar(const double *sqrt_r, const double *par_perf,
                            const double *feas, double f, double *val,
                            std::size_t count);

/** SIMD twin of speedupValuePassScalar(); panics if not compiled in. */
void speedupValuePassSimd(const double *sqrt_r, const double *par_perf,
                          const double *feas, double f, double *val,
                          std::size_t count);

/** Test hook: pin the kernel (pass Scalar/Simd) or restore dispatch. */
void forceBatchKernelForTest(const BatchKernel *kernel);

} // namespace detail

/**
 * Precomputed r-grid tables for one (organization, budget, options)
 * triple. Construction (assign) performs all validation and every
 * f-independent computation; best() and evaluateAll() are const,
 * allocation-free, and safe to call concurrently from many threads on
 * one shared instance — the sweep engine builds one evaluator per
 * (organization, scenario, node) and fans the f-grid over it.
 */
class BatchEvaluator
{
  public:
    BatchEvaluator() = default;
    BatchEvaluator(const Organization &org, const Budget &budget,
                   const OptimizerOptions &opts);

    /**
     * Rebuild the tables for a new triple, reusing existing capacity
     * (optimize() keeps a thread-local scratch evaluator so single-shot
     * calls never allocate in steady state).
     */
    void assign(const Organization &org, const Budget &budget,
                const OptimizerOptions &opts);

    /**
     * Best design at parallel fraction @p f — the same contract (and
     * bit-exact results) as the scalar oracle on the assigned triple,
     * including the continuousR golden-section refinement, which is
     * bracketed to the grid neighborhood of the discrete argmax.
     */
    DesignPoint best(double f) const;

    /**
     * Every feasible grid candidate at @p f appended to @p out in grid
     * order — the per-organization slice of enumerateDesigns(), bit-
     * exact against the scalar enumeration.
     */
    void evaluateAll(double f, std::vector<DesignPoint> &out) const;

    /** The r-candidate grid the tables cover (empty == infeasible). */
    const std::vector<double> &rGrid() const { return r_; }

    /** Grid length. */
    std::size_t gridSize() const { return r_.size(); }

  private:
    /** Candidate feasibility at f: geometry plus optional headroom. */
    const std::vector<double> &feasMask(double f) const;
    /** Speedup of candidate i at f (scalar-oracle expressions). */
    double speedupAt(std::size_t i, double f) const;
    /** Energy of candidate i at f (scalar-oracle expressions). */
    EnergyBreakdown energyAt(std::size_t i, double f) const;
    /** Bit-exact twin of the oracle's evaluateAtR at an arbitrary r. */
    bool evaluateContinuous(double r, double f, DesignPoint &dp) const;
    /** Golden-section refinement around discrete argmax @p best_idx. */
    void refineContinuous(std::size_t best_idx, double f,
                          DesignPoint &best) const;

    // Snapshot of the triple (plain scalars only — no allocation).
    OrgRules rules_;
    Budget budget_;
    OptimizerOptions opts_;
    ParallelRows base_; ///< the form's Table 1 rows before r enters
    double cap_ = 0.0;  ///< serial-bound r cap (continuousR upper)

    // SoA tables over the r-candidate grid.
    std::vector<double> r_;        ///< candidate core sizes
    std::vector<double> sqrtR_;    ///< perfSeq(r) = sqrt(r)
    std::vector<double> density_;  ///< CoreSize::density (Cores: pow)
    std::vector<double> n_;        ///< min of the Table 1 bounds
    std::vector<double> parPerf_;  ///< parallel-phase performance
    std::vector<double> powSerial_; ///< pow(sqrt r, alpha), MinEnergy only
    std::vector<double> feasGeom_; ///< 1.0 when n >= r
    std::vector<double> feasHead_; ///< 1.0 when also n-r >= headroom
    std::vector<unsigned char> limiter_; ///< classifyLimiter() result
};

} // namespace core
} // namespace hcm

#endif // HCM_CORE_OPTIMIZER_BATCH_HH
