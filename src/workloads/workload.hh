/**
 * @file
 * Workload descriptors for the three paper kernels (Table 3) and their
 * compulsory arithmetic intensities (Section 6 footnotes 2 and 3):
 *
 *  - FFT(N):  5 N log2 N pseudo-flops per transform, 16 N compulsory bytes
 *             (single-precision complex in + out), so
 *             intensity = 0.3125 * log2 N flop/byte (0.32 B/flop at N=1024).
 *  - MMM:     2 N^3 flops per N x N block, 2 * 4 N^2 compulsory bytes,
 *             so intensity = N/4 flop/byte (blocked at N=128 in the paper).
 *  - BS:      priced options; 10 compulsory bytes per option.
 *
 * Performance units follow the paper: pseudo-GFLOP/s for FFT, GFLOP/s for
 * MMM, Mopts/s for Black-Scholes.
 */

#ifndef HCM_WORKLOADS_WORKLOAD_HH
#define HCM_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

namespace hcm {
namespace wl {

/** The paper's three kernels. */
enum class Kind {
    MMM,
    BlackScholes,
    FFT,
};

/** Human-readable kernel name ("Dense Matrix Multiplication (MMM)"). */
std::string kindName(Kind kind);

/**
 * A concrete workload: a kernel plus its size parameter where relevant
 * (FFT input size N; MMM block size N). Black-Scholes is size-free.
 */
class Workload
{
  public:
    /** MMM blocked at @p block_n (paper default 128). */
    static Workload mmm(std::size_t block_n = 128);

    /** Black-Scholes batch pricing. */
    static Workload blackScholes();

    /** FFT of @p n points (n a power of two). */
    static Workload fft(std::size_t n);

    Kind kind() const { return _kind; }

    /** Size parameter (FFT N or MMM block N); 0 for Black-Scholes. */
    std::size_t size() const { return _size; }

    /** Display name, e.g. "FFT-1024". */
    std::string name() const;

    /** Unit of the perf column in the paper's tables. */
    std::string perfUnit() const;

    /** Ops performed by one kernel invocation of this size. */
    double opsPerInvocation() const;

    /** Compulsory off-chip bytes moved per invocation. */
    double bytesPerInvocation() const;

    /** Compulsory bytes per op — the model's bandwidth coupling factor. */
    double bytesPerOp() const;

    /** Arithmetic intensity in ops per byte (1 / bytesPerOp). */
    double intensity() const;

    bool operator==(const Workload &o) const = default;

  private:
    Workload(Kind kind, std::size_t size) : _kind(kind), _size(size) {}

    Kind _kind;
    std::size_t _size;
};

/** Table 3 row: which implementation each platform used in the paper. */
struct ImplementationInfo
{
    Kind kind;
    std::string coreI7;
    std::string gtx285;
    std::string gtx480;
    std::string r5870;
    std::string lx760;
    std::string asic;
};

/** The paper's Table 3 (workload/toolchain summary). */
const std::vector<ImplementationInfo> &implementationTable();

} // namespace wl
} // namespace hcm

#endif // HCM_WORKLOADS_WORKLOAD_HH
