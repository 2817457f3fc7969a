/** @file Unit tests for util/format. */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "util/format.hh"

namespace hcm {
namespace {

TEST(FormatTest, FmtFixedBasics)
{
    EXPECT_EQ(fmtFixed(1.5, 2), "1.50");
    EXPECT_EQ(fmtFixed(-2.25, 1), "-2.2"); // banker's-free snprintf rounding
    EXPECT_EQ(fmtFixed(0.0, 0), "0");
    EXPECT_EQ(fmtFixed(3.14159, 4), "3.1416");
}

TEST(FormatTest, FmtSigZeroAndSpecials)
{
    EXPECT_EQ(fmtSig(0.0), "0");
    EXPECT_EQ(fmtSig(std::nan("")), "nan");
    EXPECT_EQ(fmtSig(1.0 / 0.0), "inf");
    EXPECT_EQ(fmtSig(-1.0 / 0.0), "-inf");
}

TEST(FormatTest, FmtSigSignificantDigits)
{
    EXPECT_EQ(fmtSig(1.2345, 3), "1.23");
    EXPECT_EQ(fmtSig(12.345, 3), "12.3");
    EXPECT_EQ(fmtSig(123.45, 3), "123");
    // Int digits exceed sig: falls back to %.0f (round-half-even).
    EXPECT_EQ(fmtSig(1234.5, 3), "1234");
    EXPECT_EQ(fmtSig(1234.6, 3), "1235");
    EXPECT_EQ(fmtSig(0.5, 3), "0.5");     // trailing zeros trimmed
    EXPECT_EQ(fmtSig(2.0, 3), "2");
}

TEST(FormatTest, FmtSigSwitchesToScientific)
{
    EXPECT_EQ(fmtSig(1.5e7, 3), "1.50e+07");
    EXPECT_EQ(fmtSig(2.5e-4, 3), "2.50e-04");
}

TEST(FormatTest, FmtSigNegative)
{
    EXPECT_EQ(fmtSig(-12.345, 3), "-12.3");
}

TEST(FormatTest, FmtPercent)
{
    EXPECT_EQ(fmtPercent(0.975), "97.5%");
    EXPECT_EQ(fmtPercent(0.5, 0), "50%");
}

TEST(FormatTest, Padding)
{
    EXPECT_EQ(padLeft("ab", 5), "   ab");
    EXPECT_EQ(padRight("ab", 5), "ab   ");
    EXPECT_EQ(padCenter("ab", 6), "  ab  ");
    EXPECT_EQ(padCenter("ab", 5), " ab  ");
    EXPECT_EQ(padLeft("abcdef", 3), "abcdef"); // never truncates
}

TEST(FormatTest, JoinAndRepeat)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ", "), "");
    EXPECT_EQ(join({"solo"}, "-"), "solo");
    EXPECT_EQ(repeat("ab", 3), "ababab");
    EXPECT_EQ(repeat("x", 0), "");
}

TEST(FormatTest, CaseInsensitiveEquals)
{
    EXPECT_TRUE(iequals("FFT", "fft"));
    EXPECT_TRUE(iequals("", ""));
    EXPECT_FALSE(iequals("fft", "fft "));
    EXPECT_FALSE(iequals("abc", "abd"));
}

TEST(FormatTest, Trim)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim("\t\n a \r"), "a");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(FormatTest, Split)
{
    EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b",
                                                             "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
    EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(FormatTest, ParseNumberTakesWholeFiniteTokens)
{
    // Every value the old stod path accepted parses to the same double.
    for (const char *text : {"0", "1", "0.5", "0.999", "0.123456789012345",
                             "-0.1", "1e3", "2.5E-3", "22", "1500.0"})
        EXPECT_EQ(parseNumber<double>(text), std::strtod(text, nullptr))
            << text;
    EXPECT_EQ(parseNumber<int>("-1"), -1);
    EXPECT_EQ(parseNumber<std::size_t>("4096"), 4096u);

    for (const char *text : {"", "abc", "0.9x", " 0.5", "0.5 ", "+0.5",
                             "nan", "inf", "-inf", "1e999", "0x10"})
        EXPECT_FALSE(parseNumber<double>(text)) << text;
    for (const char *text : {"-1", "+1", "1.5", "4x", "",
                             "99999999999999999999999"})
        EXPECT_FALSE(parseNumber<std::size_t>(text)) << text;
    EXPECT_FALSE(parseNumber<int>("99999999999"));
}

TEST(FormatTest, AppendDouble17MatchesPrintfAndOstream)
{
    // Two pinned byte streams depend on this text: printf "%.17g"
    // (canonical query keys, so ring placement and cache identity;
    // Prometheus bucket bounds) and an ostringstream at precision 17
    // (the sweep CSV goldens and digests). It must equal both.
    std::vector<double> values = {
        0.0, -0.0, 0.1, 0.5, 0.99, 9007199254740992.0, // 2^53
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        2.2250738585072009e-308, // largest subnormal
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
    };
    std::mt19937_64 rng(20101204);
    for (int i = 0; i < 100000; ++i) {
        std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        if (std::isfinite(v))
            values.push_back(v);
    }
    std::size_t mismatches = 0;
    for (double v : values) {
        std::string text = "x";
        appendDouble17(text, v);
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        std::ostringstream oss;
        oss.precision(17);
        oss << v;
        if ((text != std::string("x") + buf ||
             text != "x" + oss.str()) &&
            ++mismatches <= 5)
            ADD_FAILURE() << text << " vs printf " << buf
                          << " vs ostream " << oss.str();
    }
    EXPECT_EQ(mismatches, 0u);
}

} // namespace
} // namespace hcm
