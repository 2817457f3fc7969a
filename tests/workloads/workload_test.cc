/** @file Tests for workload descriptors and the paper's intensity
 *  formulas (Section 6 footnotes 2 and 3). */

#include <cmath>

#include <gtest/gtest.h>

#include "workloads/workload.hh"

namespace hcm {
namespace wl {
namespace {

TEST(WorkloadTest, FftIntensityMatchesFootnote2)
{
    // intensity = 0.3125 * log2 N flops/byte; 0.32 bytes/flop at N=1024.
    Workload f1k = Workload::fft(1024);
    EXPECT_NEAR(f1k.intensity(), 0.3125 * 10.0, 1e-12);
    EXPECT_NEAR(f1k.bytesPerOp(), 0.32, 1e-12);

    Workload f64 = Workload::fft(64);
    EXPECT_NEAR(f64.intensity(), 0.3125 * 6.0, 1e-12);
}

TEST(WorkloadTest, MmmIntensityMatchesFootnote3)
{
    // intensity = N/4 flops/byte; 0.0313 bytes/flop blocked at N=128.
    Workload mmm = Workload::mmm(128);
    EXPECT_NEAR(mmm.intensity(), 32.0, 1e-12);
    EXPECT_NEAR(mmm.bytesPerOp(), 0.03125, 1e-12);

    EXPECT_NEAR(Workload::mmm(2048).intensity(), 512.0, 1e-12);
}

TEST(WorkloadTest, BlackScholesTenBytesPerOption)
{
    Workload bs = Workload::blackScholes();
    EXPECT_DOUBLE_EQ(bs.bytesPerOp(), 10.0);
    EXPECT_DOUBLE_EQ(bs.opsPerInvocation(), 1.0);
}

TEST(WorkloadTest, FftOpsAre5NLogN)
{
    EXPECT_DOUBLE_EQ(Workload::fft(1024).opsPerInvocation(),
                     5.0 * 1024 * 10);
    EXPECT_DOUBLE_EQ(Workload::fft(16384).opsPerInvocation(),
                     5.0 * 16384 * 14);
}

TEST(WorkloadTest, MmmOpsAre2NCubed)
{
    EXPECT_DOUBLE_EQ(Workload::mmm(128).opsPerInvocation(),
                     2.0 * 128.0 * 128.0 * 128.0);
}

TEST(WorkloadTest, NamesAndUnits)
{
    EXPECT_EQ(Workload::fft(1024).name(), "FFT-1024");
    EXPECT_EQ(Workload::mmm().name(), "MMM");
    EXPECT_EQ(Workload::blackScholes().name(), "BS");
    EXPECT_EQ(Workload::blackScholes().perfUnit(), "Mopts/s");
    EXPECT_EQ(Workload::fft(64).perfUnit(), "pseudo-GFLOP/s");
    EXPECT_EQ(Workload::mmm().perfUnit(), "GFLOP/s");
}

TEST(WorkloadTest, EqualityIncludesSize)
{
    EXPECT_EQ(Workload::fft(64), Workload::fft(64));
    EXPECT_NE(Workload::fft(64), Workload::fft(128));
    EXPECT_NE(Workload::mmm(), Workload::blackScholes());
}

TEST(WorkloadDeathTest, FftRejectsNonPowerOfTwo)
{
    EXPECT_DEATH(Workload::fft(1000), "power of two");
}

TEST(WorkloadTest, KindCatalog)
{
    EXPECT_NE(kindName(Kind::MMM).find("(MMM)"), std::string::npos);
    EXPECT_NE(kindName(Kind::BlackScholes).find("(BS)"), std::string::npos);
    EXPECT_NE(kindName(Kind::FFT).find("Fourier"), std::string::npos);
}

TEST(WorkloadTest, ImplementationTableCoversAllKernels)
{
    const auto &table = implementationTable();
    ASSERT_EQ(table.size(), 3u);
    EXPECT_EQ(table[0].kind, Kind::MMM);
    EXPECT_NE(table[0].coreI7.find("MKL"), std::string::npos);
    EXPECT_NE(table[1].coreI7.find("Spiral"), std::string::npos);
    EXPECT_NE(table[2].coreI7.find("PARSEC"), std::string::npos);
}

/** Intensity is monotone in FFT size (drives the bandwidth crossovers). */
TEST(WorkloadTest, FftIntensityMonotoneInSize)
{
    double prev = 0.0;
    for (std::size_t n = 16; n <= (1u << 20); n *= 2) {
        double cur = Workload::fft(n).intensity();
        EXPECT_GT(cur, prev);
        prev = cur;
    }
}

} // namespace
} // namespace wl
} // namespace hcm
