/**
 * @file
 * Black-Scholes European option pricing, mirroring the PARSEC kernel the
 * paper measures on the Core i7 (and the generated hardware pipelines on
 * the FPGA/ASIC). Two cumulative-normal variants are provided:
 *
 *  - Erf:        N(x) = 0.5 * erfc(-x / sqrt(2)) via libm (accurate).
 *  - Polynomial: the Abramowitz & Stegun 26.2.17 five-term polynomial used
 *                by PARSEC's CNDF (fast, ~7.5e-8 absolute error).
 */

#ifndef HCM_WORKLOADS_BLACKSCHOLES_HH
#define HCM_WORKLOADS_BLACKSCHOLES_HH

#include <cstddef>

namespace hcm {
namespace wl {

/** Option flavor. */
enum class OptionType {
    Call,
    Put,
};

/** One European option contract plus market state. */
struct Option
{
    float spot = 0.0f;      ///< current underlying price S
    float strike = 0.0f;    ///< strike price K
    float rate = 0.0f;      ///< risk-free rate r (annualized)
    float volatility = 0.0f;///< sigma (annualized)
    float expiry = 0.0f;    ///< time to expiry T in years
    OptionType type = OptionType::Call;
};

/** CNDF implementation selector. */
enum class CndfMethod {
    Erf,
    Polynomial,
};

/** Standard normal CDF via erfc. */
float normCdfErf(float x);

/** Standard normal CDF via the PARSEC-style A&S polynomial. */
float normCdfPoly(float x);

/** Price a single option with the chosen CNDF. */
float priceOption(const Option &opt, CndfMethod method = CndfMethod::Erf);

/**
 * Price a batch of options (the throughput-driven form the paper assumes:
 * many independent inputs). @p out must have room for @p count results.
 */
void priceBatch(const Option *options, float *out, std::size_t count,
                CndfMethod method = CndfMethod::Erf);

} // namespace wl
} // namespace hcm

#endif // HCM_WORKLOADS_BLACKSCHOLES_HH
