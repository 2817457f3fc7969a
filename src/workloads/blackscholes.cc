#include "blackscholes.hh"

#include <cmath>

#include "util/logging.hh"

namespace hcm {
namespace wl {

namespace {

constexpr float kInvSqrt2 = 0.70710678118654752440f;
constexpr float kInvSqrt2Pi = 0.39894228040143267794f;

} // namespace

float
normCdfErf(float x)
{
    return 0.5f * std::erfc(-x * kInvSqrt2);
}

float
normCdfPoly(float x)
{
    // Abramowitz & Stegun 26.2.17, the CNDF used by PARSEC blackscholes.
    bool negative = x < 0.0f;
    float ax = negative ? -x : x;

    float k = 1.0f / (1.0f + 0.2316419f * ax);
    float k2 = k * k;
    float k3 = k2 * k;
    float k4 = k2 * k2;
    float k5 = k4 * k;
    float poly = 0.319381530f * k - 0.356563782f * k2 + 1.781477937f * k3 -
                 1.821255978f * k4 + 1.330274429f * k5;
    float pdf = kInvSqrt2Pi * std::exp(-0.5f * ax * ax);
    float cdf = 1.0f - pdf * poly;
    return negative ? 1.0f - cdf : cdf;
}

float
priceOption(const Option &opt, CndfMethod method)
{
    hcm_assert(opt.spot > 0.0f && opt.strike > 0.0f && opt.expiry > 0.0f &&
               opt.volatility > 0.0f, "option parameters must be positive");

    float sqrt_t = std::sqrt(opt.expiry);
    float sig_sqrt_t = opt.volatility * sqrt_t;
    float d1 = (std::log(opt.spot / opt.strike) +
                (opt.rate + 0.5f * opt.volatility * opt.volatility) *
                opt.expiry) / sig_sqrt_t;
    float d2 = d1 - sig_sqrt_t;

    auto cndf = (method == CndfMethod::Erf) ? normCdfErf : normCdfPoly;
    float disc_k = opt.strike * std::exp(-opt.rate * opt.expiry);
    if (opt.type == OptionType::Call)
        return opt.spot * cndf(d1) - disc_k * cndf(d2);
    return disc_k * cndf(-d2) - opt.spot * cndf(-d1);
}

void
priceBatch(const Option *options, float *out, std::size_t count,
           CndfMethod method)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = priceOption(options[i], method);
}

} // namespace wl
} // namespace hcm
