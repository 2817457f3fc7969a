/** @file Unit tests for the sweep spec list parsers. */

#include <gtest/gtest.h>

#include "core/projection.hh"
#include "sweep/spec.hh"
#include "sweep/sweep.hh"

namespace hcm {
namespace sweep {
namespace {

TEST(SweepSpecTest, ParsesWorkloadList)
{
    std::string error;
    auto list = parseWorkloadList("mmm,bs,fft:64", &error);
    ASSERT_TRUE(list.has_value()) << error;
    ASSERT_EQ(list->size(), 3u);
    EXPECT_EQ((*list)[0].name(), wl::Workload::mmm().name());
    EXPECT_EQ((*list)[1].name(), wl::Workload::blackScholes().name());
    EXPECT_EQ((*list)[2].name(), wl::Workload::fft(64).name());
    EXPECT_FALSE(parseWorkloadList("mmm,bs,fft:256", &error));
}

TEST(SweepSpecTest, RejectsUnknownWorkload)
{
    std::string error;
    EXPECT_FALSE(parseWorkloadList("mmm,quicksort", &error));
    EXPECT_NE(error.find("quicksort"), std::string::npos);
}

TEST(SweepSpecTest, RejectsNonPowerOfTwoFft)
{
    std::string error;
    EXPECT_FALSE(parseWorkloadList("fft:1000", &error));
    EXPECT_FALSE(error.empty());
}

TEST(SweepSpecTest, RejectsFftSizesWithoutCalibration)
{
    // Regression: any power of two parsed, then the sweep aborted on
    // the first device without a Table 5 measurement for that size.
    for (const char *spec : {"fft:2", "fft:128", "mmm,fft:4096"}) {
        std::string error;
        EXPECT_FALSE(parseWorkloadList(spec, &error)) << spec;
        EXPECT_NE(error.find("no Table 5 calibration"), std::string::npos)
            << spec << " -> " << error;
    }
}

TEST(SweepSpecTest, ParsesFractionList)
{
    std::string error;
    auto list = parseFractionList("0.5,0.99,1", &error);
    ASSERT_TRUE(list.has_value()) << error;
    EXPECT_EQ(*list, (std::vector<double>{0.5, 0.99, 1.0}));
}

TEST(SweepSpecTest, RejectsFractionOutOfRange)
{
    std::string error;
    EXPECT_FALSE(parseFractionList("0.5,1.5", &error));
    EXPECT_FALSE(parseFractionList("-0.1", &error));
    EXPECT_FALSE(parseFractionList("0.5x", &error));
    // Regression: NaN slipped past the range check and aborted the
    // sweep; stod also skipped leading whitespace.
    EXPECT_FALSE(parseFractionList("nan", &error));
    EXPECT_FALSE(parseFractionList(" 0.5", &error));
}

TEST(SweepSpecTest, ParsesScenarioListAndAll)
{
    std::string error;
    auto two = parseScenarioList("baseline,power-10w", &error);
    ASSERT_TRUE(two.has_value()) << error;
    ASSERT_EQ(two->size(), 2u);
    EXPECT_EQ((*two)[1].name, "power-10w");

    auto all = parseScenarioList("all", &error);
    ASSERT_TRUE(all.has_value()) << error;
    // baseline + every Section 6.2 alternative.
    EXPECT_EQ(all->size(), 1u + core::alternativeScenarios().size());
    EXPECT_EQ((*all)[0].name, "baseline");
}

TEST(SweepSpecTest, FftSizeParsingIsStrict)
{
    // Regression: stoul-based parsing accepted trailing junk
    // ("fft:1024abc" ran as fft:1024), sign characters, and sizes that
    // overflow unsigned long.
    std::string error;
    EXPECT_FALSE(parseWorkloadList("fft:1024abc", &error));
    EXPECT_FALSE(parseWorkloadList("fft:+8", &error));
    EXPECT_FALSE(parseWorkloadList("fft:-8", &error));
    EXPECT_FALSE(parseWorkloadList("fft: 8", &error));
    EXPECT_FALSE(parseWorkloadList("fft:99999999999999999999999", &error));
    EXPECT_FALSE(parseWorkloadList("fft:1", &error));
    EXPECT_FALSE(parseWorkloadList("fft:0", &error));

    auto ok = parseWorkloadList("FFT:64", &error);
    ASSERT_TRUE(ok.has_value()) << error;
    EXPECT_EQ((*ok)[0].name(), wl::Workload::fft(64).name());
}

TEST(SweepSpecTest, ScenarioTokensAreCaseInsensitive)
{
    // Regression: scenarioFromToken compared with operator== while
    // workload tokens and core::scenarioByName matched case-insensitively,
    // so "--scenarios Power-200W" was rejected.
    std::string error;
    auto list = parseScenarioList("Power-200W,BASELINE,Thermal-85C", &error);
    ASSERT_TRUE(list.has_value()) << error;
    ASSERT_EQ(list->size(), 3u);
    EXPECT_EQ((*list)[0].name, "power-200w");
    EXPECT_EQ((*list)[1].name, "baseline");
    EXPECT_EQ((*list)[2].name, "thermal-85c");
}

TEST(SweepSpecTest, ScenarioListDeduplicates)
{
    // Regression: "all,power-200w" ran power-200w twice, double-counting
    // sweep units, CSV rows, and hcm_sweep_units_total.
    std::string error;
    auto all = parseScenarioList("all", &error);
    ASSERT_TRUE(all.has_value()) << error;
    auto extra = parseScenarioList("all,power-200w,Baseline", &error);
    ASSERT_TRUE(extra.has_value()) << error;
    EXPECT_EQ(extra->size(), all->size());

    // First occurrence wins, so an explicit leading scenario reorders.
    auto led = parseScenarioList("power-200w,all", &error);
    ASSERT_TRUE(led.has_value()) << error;
    EXPECT_EQ(led->size(), all->size());
    EXPECT_EQ((*led)[0].name, "power-200w");
    EXPECT_EQ((*led)[1].name, "baseline");

    // The sweep downstream runs exactly one pass per scenario.
    SweepSpec once, twice;
    once.workloads = twice.workloads = {wl::Workload::mmm()};
    once.fractions = twice.fractions = {0.9};
    once.scenarios = *all;
    twice.scenarios = *extra;
    EXPECT_EQ(runSweep(once).units, runSweep(twice).units);
}

TEST(SweepSpecTest, AllCoversEveryRegistryScenarioOnce)
{
    std::string error;
    auto all = parseScenarioList("all", &error);
    ASSERT_TRUE(all.has_value()) << error;
    const auto &registry = core::allScenarios();
    ASSERT_EQ(all->size(), registry.size());
    for (std::size_t i = 0; i < registry.size(); ++i)
        EXPECT_EQ((*all)[i].name, registry[i].name);
    // And every registry name round-trips through the parser alone.
    for (const core::Scenario &s : registry) {
        auto one = parseScenarioList(s.name, &error);
        ASSERT_TRUE(one.has_value()) << s.name << ": " << error;
        EXPECT_EQ(one->size(), 1u);
    }
}

TEST(SweepSpecTest, RejectsUnknownScenarioAndEmptyLists)
{
    std::string error;
    EXPECT_FALSE(parseScenarioList("baseline,warp-drive", &error));
    EXPECT_NE(error.find("warp-drive"), std::string::npos);
    EXPECT_FALSE(parseWorkloadList("", &error));
    EXPECT_FALSE(parseFractionList("", &error));
    EXPECT_FALSE(parseScenarioList("", &error));
}

TEST(SweepSpecTest, DefaultSpecStringsMatchPaperSweep)
{
    std::string error;
    auto spec = parseSweepSpec(SpecStrings{}, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    // The full figure grid: the three paper workloads across the
    // standard fractions under the baseline scenario.
    EXPECT_EQ(spec->workloads,
              (std::vector<wl::Workload>{wl::Workload::mmm(),
                                         wl::Workload::blackScholes(),
                                         wl::Workload::fft(1024)}));
    EXPECT_EQ(spec->fractions, core::standardFractions());
    ASSERT_EQ(spec->scenarios.size(), 1u);
    EXPECT_EQ(spec->scenarios[0].name, core::baselineScenario().name);
}

TEST(SweepSpecTest, ParseSweepSpecReportsFirstBadList)
{
    SpecStrings strings;
    strings.fractions = "2.0";
    std::string error;
    EXPECT_FALSE(parseSweepSpec(strings, &error));
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace sweep
} // namespace hcm
