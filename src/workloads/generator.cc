#include "generator.hh"

namespace hcm {
namespace wl {

Rng::Rng(std::uint64_t seed) : _state(seed ? seed : 1)
{
}

std::uint64_t
Rng::next()
{
    // xorshift64* (Vigna): passes BigCrush on the high bits.
    _state ^= _state >> 12;
    _state ^= _state << 25;
    _state ^= _state >> 27;
    return _state * 0x2545f4914f6cdd1dull;
}

double
Rng::uniform()
{
    // 53 high bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

float
Rng::uniformF(float lo, float hi)
{
    return static_cast<float>(uniform(lo, hi));
}

std::vector<float>
randomVector(std::size_t n, Rng &rng)
{
    std::vector<float> out(n);
    for (float &v : out)
        v = rng.uniformF(-1.0f, 1.0f);
    return out;
}

std::vector<float>
randomMatrix(std::size_t n, Rng &rng)
{
    return randomVector(n * n, rng);
}

std::vector<cfloat>
randomSignal(std::size_t n, Rng &rng)
{
    std::vector<cfloat> out(n);
    for (cfloat &v : out)
        v = cfloat(rng.uniformF(-1.0f, 1.0f), rng.uniformF(-1.0f, 1.0f));
    return out;
}

std::vector<Option>
randomOptions(std::size_t count, Rng &rng)
{
    std::vector<Option> out(count);
    for (std::size_t i = 0; i < count; ++i) {
        Option &o = out[i];
        o.spot = rng.uniformF(5.0f, 200.0f);
        o.strike = o.spot * rng.uniformF(0.6f, 1.4f);
        o.rate = rng.uniformF(0.01f, 0.10f);
        o.volatility = rng.uniformF(0.05f, 0.90f);
        o.expiry = rng.uniformF(0.05f, 2.0f);
        o.type = (i % 2 == 0) ? OptionType::Call : OptionType::Put;
    }
    return out;
}

} // namespace wl
} // namespace hcm
