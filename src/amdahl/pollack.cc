#include "pollack.hh"

#include <cmath>

#include "util/logging.hh"

namespace hcm {
namespace model {

double
perfSeq(double r)
{
    hcm_assert(r > 0.0, "core size must be positive");
    return std::sqrt(r);
}

double
powerForPerf(double perf, double alpha)
{
    hcm_assert(perf > 0.0, "performance must be positive");
    hcm_assert(alpha >= 1.0, "alpha below 1 is not super-linear");
    return std::pow(perf, alpha);
}

double
powerSeq(double r, double alpha)
{
    return powerForPerf(perfSeq(r), alpha);
}

double
maxSerialRForPower(double p, double alpha)
{
    hcm_assert(p > 0.0, "power budget must be positive");
    return std::pow(p, 2.0 / alpha);
}

double
maxSerialRForBandwidth(double b)
{
    hcm_assert(b > 0.0, "bandwidth budget must be positive");
    return b * b;
}

} // namespace model
} // namespace hcm
