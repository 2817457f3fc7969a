/** @file Tests for the projection JSON export. */

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "report/export.hh"

namespace hcm {
namespace report {
namespace {

std::string
exportFor(const wl::Workload &w, std::vector<double> fs)
{
    std::ostringstream oss;
    exportProjectionJson(oss, w, fs);
    return oss.str();
}

TEST(ExportTest, DocumentIsBalanced)
{
    std::string doc = exportFor(wl::Workload::fft(1024), {0.9, 0.99});
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
              std::count(doc.begin(), doc.end(), '}'));
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
              std::count(doc.begin(), doc.end(), ']'));
    EXPECT_EQ(doc.front(), '{');
}

TEST(ExportTest, ContainsExpectedStructure)
{
    std::string doc = exportFor(wl::Workload::fft(1024), {0.99});
    for (const char *needle :
         {"\"workload\":\"FFT-1024\"", "\"scenario\":\"baseline\"",
          "\"bytesPerOp\":0.32", "\"projections\":", "\"f\":0.99",
          "\"organization\":\"ASIC\"", "\"limiter\":\"bandwidth\"",
          "\"node\":\"40nm\"", "\"year\":2022", "\"budget\":"})
        EXPECT_NE(doc.find(needle), std::string::npos) << needle;
}

TEST(ExportTest, HetSeriesCarryCalibration)
{
    std::string doc = exportFor(wl::Workload::mmm(), {0.9});
    EXPECT_NE(doc.find("\"mu\":"), std::string::npos);
    EXPECT_NE(doc.find("\"phi\":"), std::string::npos);
    EXPECT_NE(doc.find("\"bandwidthExempt\":true"), std::string::npos);
    // CMP series carry no mu/phi: count is the number of HET series.
    std::size_t mus = 0;
    for (std::size_t pos = doc.find("\"mu\":"); pos != std::string::npos;
         pos = doc.find("\"mu\":", pos + 1))
        ++mus;
    EXPECT_EQ(mus, 5u); // MMM has five HET lines
}

TEST(ExportTest, PointCountMatchesNodesTimesSeries)
{
    std::string doc = exportFor(wl::Workload::blackScholes(), {0.9});
    std::size_t speedups = 0;
    for (std::size_t pos = doc.find("\"speedup\":");
         pos != std::string::npos;
         pos = doc.find("\"speedup\":", pos + 1))
        ++speedups;
    EXPECT_EQ(speedups, 5u * 5u); // 5 organizations x 5 nodes
}

} // namespace
} // namespace report
} // namespace hcm
