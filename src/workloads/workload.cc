#include "workload.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/math.hh"

namespace hcm {
namespace wl {

std::string
kindName(Kind kind)
{
    switch (kind) {
      case Kind::MMM:
        return "Dense Matrix Multiplication (MMM)";
      case Kind::BlackScholes:
        return "Black-Scholes (BS)";
      case Kind::FFT:
        return "Fast Fourier Transform (FFT)";
    }
    hcm_panic("bad workload kind");
}

Workload
Workload::mmm(std::size_t block_n)
{
    hcm_assert(block_n >= 2, "MMM block size too small");
    return Workload(Kind::MMM, block_n);
}

Workload
Workload::blackScholes()
{
    return Workload(Kind::BlackScholes, 0);
}

Workload
Workload::fft(std::size_t n)
{
    hcm_assert(isPow2(n) && n >= 2, "FFT size must be a power of two >= 2");
    return Workload(Kind::FFT, n);
}

std::string
Workload::name() const
{
    switch (_kind) {
      case Kind::MMM:
        return "MMM";
      case Kind::BlackScholes:
        return "BS";
      case Kind::FFT:
        return "FFT-" + std::to_string(_size);
    }
    hcm_panic("bad workload kind");
}

std::string
Workload::perfUnit() const
{
    switch (_kind) {
      case Kind::MMM:
        return "GFLOP/s";
      case Kind::BlackScholes:
        return "Mopts/s";
      case Kind::FFT:
        return "pseudo-GFLOP/s";
    }
    hcm_panic("bad workload kind");
}

double
Workload::opsPerInvocation() const
{
    switch (_kind) {
      case Kind::MMM: {
        double n = static_cast<double>(_size);
        return 2.0 * n * n * n;
      }
      case Kind::BlackScholes:
        return 1.0; // one option
      case Kind::FFT: {
        double n = static_cast<double>(_size);
        return 5.0 * n * std::log2(n);
      }
    }
    hcm_panic("bad workload kind");
}

double
Workload::bytesPerInvocation() const
{
    switch (_kind) {
      case Kind::MMM: {
        // Footnote 3: 2 * 4 N^2 bytes (one operand block streamed in,
        // one block streamed out, 4-byte floats).
        double n = static_cast<double>(_size);
        return 2.0 * 4.0 * n * n;
      }
      case Kind::BlackScholes:
        // Section 6: 10 bytes per option.
        return 10.0;
      case Kind::FFT: {
        // Footnote 2: 16 N bytes (complex64 in + complex64 out).
        double n = static_cast<double>(_size);
        return 16.0 * n;
      }
    }
    hcm_panic("bad workload kind");
}

double
Workload::bytesPerOp() const
{
    return bytesPerInvocation() / opsPerInvocation();
}

double
Workload::intensity() const
{
    return opsPerInvocation() / bytesPerInvocation();
}

const std::vector<ImplementationInfo> &
implementationTable()
{
    static const std::vector<ImplementationInfo> table = {
        {Kind::MMM, "MKL 10.2.3", "CUBLAS 2.3", "CUBLAS 3.0/3.1beta",
         "CAL++", "Bluespec (by hand)", "Bluespec (by hand)"},
        {Kind::FFT, "Spiral", "CUFFT 2.3/3.0/3.1beta", "CUFFT 3.0/3.1beta",
         "-", "Verilog (Spiral-generated)", "Verilog (Spiral-generated)"},
        {Kind::BlackScholes, "PARSEC (modified)", "CUDA 2.3",
         "CUDA 3.1 ref.", "-", "Verilog (generated)", "Verilog (generated)"},
    };
    return table;
}

} // namespace wl
} // namespace hcm
