#include "multicore.hh"

#include "amdahl/pollack.hh"
#include "util/logging.hh"

namespace hcm {
namespace model {

namespace {

/** Validate f in [0, 1]; panics otherwise. */
void
checkFraction(double f)
{
    hcm_assert(f >= 0.0 && f <= 1.0, "fraction f=", f, " outside [0,1]");
}

/** Shared validation for (f, n, r) triples. */
void
checkArgs(double f, double n, double r, bool strict_parallel)
{
    checkFraction(f);
    hcm_assert(r > 0.0, "sequential core size r must be positive");
    if (strict_parallel && f > 0.0)
        hcm_assert(n > r, "need parallel resources (n > r) when f > 0");
    else
        hcm_assert(n >= r, "total resources n must cover the core (>= r)");
}

/** Combine serial and parallel phase rates into a speedup. */
double
combine(double f, double serial_perf, double parallel_perf)
{
    double serial_time = (1.0 - f) / serial_perf;
    double parallel_time = (f > 0.0) ? f / parallel_perf : 0.0;
    return 1.0 / (serial_time + parallel_time);
}

} // namespace

double
speedupSymmetric(double f, double n, double r)
{
    checkArgs(f, n, r, false);
    double perf = perfSeq(r);
    // Serial: one sqrt(r) core. Parallel: n/r such cores.
    return combine(f, perf, (n / r) * perf);
}

double
speedupAsymmetric(double f, double n, double r)
{
    checkArgs(f, n, r, false);
    double perf = perfSeq(r);
    return combine(f, perf, perf + (n - r));
}

double
speedupAsymmetricOffload(double f, double n, double r)
{
    checkArgs(f, n, r, true);
    return combine(f, perfSeq(r), n - r);
}

double
speedupDynamic(double f, double n)
{
    checkFraction(f);
    hcm_assert(n > 0.0, "total resources must be positive");
    return combine(f, perfSeq(n), n);
}

double
speedupHeterogeneous(double f, double n, double r, double mu)
{
    checkArgs(f, n, r, true);
    hcm_assert(mu > 0.0, "U-core relative performance mu must be positive");
    return combine(f, perfSeq(r), mu * (n - r));
}

} // namespace model
} // namespace hcm
