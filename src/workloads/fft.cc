#include "fft.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/math.hh"

namespace hcm {
namespace wl {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/** Bit-reverse the low @p bits bits of @p v. */
std::uint32_t
reverseBits(std::uint32_t v, unsigned bits)
{
    std::uint32_t r = 0;
    for (unsigned i = 0; i < bits; ++i) {
        r = (r << 1) | (v & 1u);
        v >>= 1;
    }
    return r;
}

} // namespace

FftPlan::FftPlan(std::size_t n, Algorithm alg) : _n(n), _alg(alg)
{
    hcm_assert(isPow2(n) && n >= 2, "FFT size must be a power of two >= 2");
    _log2n = ilog2(n);

    // Twiddles: stage s (s = 0 .. log2n-1) has a butterfly span of
    // 2^(s+1) and needs 2^s distinct factors exp(-2*pi*i*k / 2^(s+1)).
    _stageOffset.resize(_log2n);
    std::size_t total = 0;
    for (unsigned s = 0; s < _log2n; ++s) {
        _stageOffset[s] = total;
        total += std::size_t{1} << s;
    }
    _twiddles.resize(total);
    for (unsigned s = 0; s < _log2n; ++s) {
        std::size_t half = std::size_t{1} << s;
        double span = static_cast<double>(2 * half);
        for (std::size_t k = 0; k < half; ++k) {
            double ang = -kTwoPi * static_cast<double>(k) / span;
            _twiddles[_stageOffset[s] + k] =
                cfloat(static_cast<float>(std::cos(ang)),
                       static_cast<float>(std::sin(ang)));
        }
    }

    if (_alg == Algorithm::Radix2DIT) {
        _bitrev.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            _bitrev[i] = reverseBits(static_cast<std::uint32_t>(i), _log2n);
    } else {
        _scratch.resize(n);
    }
}

void
FftPlan::forward(cfloat *data) const
{
    switch (_alg) {
      case Algorithm::Radix2DIT:
        radix2(data);
        break;
      case Algorithm::Stockham:
        stockham(data);
        break;
      case Algorithm::StockhamRadix4:
        stockham4(data);
        break;
    }
}

void
FftPlan::radix2(cfloat *data) const
{
    // Bit-reversal permutation (swap once per pair).
    for (std::size_t i = 0; i < _n; ++i) {
        std::uint32_t j = _bitrev[i];
        if (i < j)
            std::swap(data[i], data[j]);
    }

    for (unsigned s = 0; s < _log2n; ++s) {
        std::size_t half = std::size_t{1} << s;
        std::size_t span = half << 1;
        const cfloat *tw = &_twiddles[_stageOffset[s]];
        for (std::size_t base = 0; base < _n; base += span) {
            for (std::size_t k = 0; k < half; ++k) {
                cfloat a = data[base + k];
                cfloat b = data[base + k + half] * tw[k];
                data[base + k] = a + b;
                data[base + k + half] = a - b;
            }
        }
    }
}

void
FftPlan::stockham2Pass(cfloat *&x, cfloat *&y, std::size_t l,
                       std::size_t m) const
{
    std::size_t lh = l / 2;
    // Butterfly (j, j+lh) uses w = exp(-2*pi*i*j / l); that is the
    // same factor set as DIT stage log2(l)-1 read in order.
    const cfloat *tw = &_twiddles[_stageOffset[ilog2(l) - 1]];
    for (std::size_t j = 0; j < lh; ++j) {
        cfloat w = tw[j];
        const cfloat *xa = x + j * m;
        const cfloat *xb = x + (j + lh) * m;
        cfloat *ya = y + 2 * j * m;
        cfloat *yb = y + (2 * j + 1) * m;
        for (std::size_t k = 0; k < m; ++k) {
            cfloat a = xa[k];
            cfloat b = xb[k];
            ya[k] = a + b;
            yb[k] = (a - b) * w;
        }
    }
    std::swap(x, y);
}

void
FftPlan::stockham(cfloat *data) const
{
    // Iterative decimation-in-frequency autosort: each pass halves the
    // butterfly length l and doubles the interleave stride m, writing to
    // the alternate buffer so no bit-reversal pass is needed.
    cfloat *x = data;
    cfloat *y = _scratch.data();
    std::size_t l = _n;
    std::size_t m = 1;
    while (l > 1) {
        stockham2Pass(x, y, l, m);
        l >>= 1;
        m <<= 1;
    }
    if (x != data) {
        for (std::size_t i = 0; i < _n; ++i)
            data[i] = x[i];
    }
}

void
FftPlan::stockham4(cfloat *data) const
{
    // Radix-4 decimation-in-frequency autosort. Each pass splits a
    // length-l transform into four length-l/4 transforms:
    //   q=0: (a+c) + (b+d)
    //   q=1: ((a-c) - i(b-d)) * w^j      (w = exp(-2*pi*i/l))
    //   q=2: ((a+c) - (b+d)) * w^2j
    //   q=3: ((a-c) + i(b-d)) * w^3j
    // When log2 N is odd a final radix-2 pass finishes the job.
    cfloat *x = data;
    cfloat *y = _scratch.data();
    std::size_t l = _n;
    std::size_t m = 1;
    while (l >= 4) {
        std::size_t lq = l / 4;
        unsigned p = ilog2(l);
        // exp(-2*pi*i*j / 2^p): the first quarter of DIT stage p-1;
        // exp(-2*pi*i*j / 2^(p-1)): all of stage p-2.
        const cfloat *tw1 = &_twiddles[_stageOffset[p - 1]];
        const cfloat *tw2 = &_twiddles[_stageOffset[p - 2]];
        for (std::size_t j = 0; j < lq; ++j) {
            cfloat w1 = tw1[j];
            cfloat w2 = tw2[j];
            cfloat w3 = w1 * w2;
            const cfloat *xa = x + j * m;
            const cfloat *xb = x + (j + lq) * m;
            const cfloat *xc = x + (j + 2 * lq) * m;
            const cfloat *xd = x + (j + 3 * lq) * m;
            cfloat *y0 = y + (4 * j + 0) * m;
            cfloat *y1 = y + (4 * j + 1) * m;
            cfloat *y2 = y + (4 * j + 2) * m;
            cfloat *y3 = y + (4 * j + 3) * m;
            for (std::size_t k = 0; k < m; ++k) {
                cfloat a = xa[k], b = xb[k], c = xc[k], d = xd[k];
                cfloat t0 = a + c;
                cfloat t1 = a - c;
                cfloat t2 = b + d;
                cfloat bd = b - d;
                cfloat t3(bd.imag(), -bd.real()); // -i*(b-d)
                y0[k] = t0 + t2;
                y1[k] = (t1 + t3) * w1;
                y2[k] = (t0 - t2) * w2;
                y3[k] = (t1 - t3) * w3;
            }
        }
        std::swap(x, y);
        l = lq;
        m <<= 2;
    }
    if (l == 2)
        stockham2Pass(x, y, l, m);
    if (x != data) {
        for (std::size_t i = 0; i < _n; ++i)
            data[i] = x[i];
    }
}

double
FftPlan::pseudoFlops() const
{
    return 5.0 * static_cast<double>(_n) * static_cast<double>(_log2n);
}

std::vector<cfloat>
realFft(const std::vector<float> &input)
{
    std::size_t n = input.size();
    hcm_assert(isPow2(n) && n >= 4,
               "real FFT size must be a power of two >= 4");
    std::size_t h = n / 2;

    // Pack adjacent real samples into complex points and transform.
    std::vector<cfloat> z(h);
    for (std::size_t i = 0; i < h; ++i)
        z[i] = cfloat(input[2 * i], input[2 * i + 1]);
    FftPlan plan(h, FftPlan::Algorithm::Stockham);
    plan.forward(z.data());

    // Untangle: with E/O the transforms of the even/odd samples,
    //   Z[k] = E[k] + i O[k]
    //   E[k] = (Z[k] + conj(Z[h-k])) / 2
    //   O[k] = (Z[k] - conj(Z[h-k])) / (2i)
    //   X[k] = E[k] + exp(-2*pi*i*k/n) O[k],  k = 0..h (Z[h] = Z[0]).
    std::vector<cfloat> out(h + 1);
    for (std::size_t k = 0; k <= h; ++k) {
        cfloat zk = z[k % h];
        cfloat zr = std::conj(z[(h - k) % h]);
        cfloat e = 0.5f * (zk + zr);
        cfloat diff = zk - zr;
        cfloat o = cfloat(0.5f * diff.imag(), -0.5f * diff.real());
        double ang = -kTwoPi * static_cast<double>(k) /
                     static_cast<double>(n);
        cfloat w(static_cast<float>(std::cos(ang)),
                 static_cast<float>(std::sin(ang)));
        out[k] = e + w * o;
    }
    return out;
}

} // namespace wl
} // namespace hcm
