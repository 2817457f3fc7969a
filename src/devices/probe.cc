#include "probe.hh"

#include "util/logging.hh"

namespace hcm {
namespace dev {

CurrentProbe::CurrentProbe(DeviceId id, double noise, std::uint64_t seed)
    : _model(id), _noise(noise), _rng(seed)
{
    hcm_assert(noise >= 0.0 && noise < 0.5, "unreasonable probe noise");
}

double
CurrentProbe::noisy(double watts)
{
    return watts * (1.0 + _rng.uniform(-_noise, _noise));
}

Power
CurrentProbe::sampleTotal(std::size_t fft_n)
{
    return Power(noisy(_model.breakdownAt(fft_n).total().value()));
}

Power
CurrentProbe::sampleMemoryStress(std::size_t fft_n)
{
    PowerBreakdown b = _model.breakdownAt(fft_n);
    return Power(
        noisy((b.uncoreStatic + b.unknown + b.uncoreDynamic).value()));
}

UncoreSubtraction::UncoreSubtraction(CurrentProbe &probe, int samples)
    : _probe(probe), _samples(samples)
{
    hcm_assert(samples >= 1, "need at least one sample");
}

Power
UncoreSubtraction::average(std::size_t n,
                           Power (CurrentProbe::*sampler)(std::size_t))
{
    double acc = 0.0;
    for (int i = 0; i < _samples; ++i)
        acc += (_probe.*sampler)(n).value();
    return Power(acc / _samples);
}

Power
UncoreSubtraction::estimateCorePower(std::size_t n)
{
    Power total = average(n, &CurrentProbe::sampleTotal);
    Power stress = average(n, &CurrentProbe::sampleMemoryStress);
    return total - stress;
}

} // namespace dev
} // namespace hcm
