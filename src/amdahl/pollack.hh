/**
 * @file
 * Pollack's law and the serial power law (Sections 2.1 and 3.1):
 * sequential performance from microarchitecture grows with the square
 * root of the resources invested (perf_seq(r) = sqrt(r), r in BCE units),
 * and sequential power grows super-linearly with performance
 * (power_seq = perf^alpha, alpha ~= 1.75 per Grochowski et al.), so a
 * core of r BCEs burns r^(alpha/2) BCE power units.
 */

#ifndef HCM_AMDAHL_POLLACK_HH
#define HCM_AMDAHL_POLLACK_HH

namespace hcm {
namespace model {

/** Default serial power exponent (Section 3.1). */
constexpr double kDefaultAlpha = 1.75;

/** Scenario 6's pessimistic serial power exponent (Section 6.2). */
constexpr double kHighAlpha = 2.25;

/** Sequential performance of a core built from @p r BCEs: sqrt(r). */
double perfSeq(double r);

/** Power of a core with sequential performance @p perf: perf^alpha. */
double powerForPerf(double perf, double alpha = kDefaultAlpha);

/** Power of a core built from @p r BCEs: r^(alpha/2). */
double powerSeq(double r, double alpha = kDefaultAlpha);

/** Largest r whose serial power fits budget @p p: p^(2/alpha). */
double maxSerialRForPower(double p, double alpha = kDefaultAlpha);

/** Largest r whose serial bandwidth fits budget @p b: b^2 (Table 1). */
double maxSerialRForBandwidth(double b);

} // namespace model
} // namespace hcm

#endif // HCM_AMDAHL_POLLACK_HH
