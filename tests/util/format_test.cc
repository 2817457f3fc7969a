/** @file Unit tests for util/format. */

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/format.hh"
#include "util/json.hh"

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

TEST(FormatTest, Repeat)
{
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
        // Appended, not "x" + oss.str(): GCC 12 reports a false
        // -Wrestrict in the inlined operator+ at -O2.
        std::string streamed = "x";
        streamed += oss.str();
        if ((text != std::string("x") + buf || text != streamed) &&
            ++mismatches <= 5)
            ADD_FAILURE() << text << " vs printf " << buf
                          << " vs ostream " << oss.str();
    }
    EXPECT_EQ(mismatches, 0u);
}

/** std::to_chars(general, P): by the standard, printf "%.{P}g". */
std::string
referenceG(double v, int precision)
{
    char buf[64];
    auto result = std::to_chars(buf, buf + sizeof(buf), v,
                                std::chars_format::general, precision);
    return std::string(buf, result.ptr);
}

std::string
formattedG(double v, int precision)
{
    // Poison the buffer so an unwritten byte inside the result shows.
    char buf[kGeneralRoom];
    std::memset(buf, '#', sizeof(buf));
    return std::string(buf, formatGeneral(buf, v, precision));
}

/**
 * Differential test of the one "%.*g" formatter and both writers built
 * on it — JsonWriter::value(double) at 12 digits and appendDouble17 at
 * 17 — against std::to_chars(general, P). Values come from named
 * categories, each aimed at one part of formatGeneral: the 128-bit
 * scaling on either side of k = 0, half-even ties, the exponent
 * correction at powers of ten, the carry across %g's fixed/scientific
 * switch, and the to_chars fallback (subnormals, far exponents,
 * non-finite bit patterns). A failure prints the seed and the value.
 */
TEST(FormatTest, GeneralMatchesToCharsByCategory)
{
    constexpr std::uint64_t kSeed = 20101204;
    std::mt19937_64 rng(kSeed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    auto fromBits = [](std::uint64_t bits) {
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    };
    auto neighbours = [](std::vector<double> &out, double v, int ulps) {
        constexpr double kInf = std::numeric_limits<double>::infinity();
        double lo = v, hi = v;
        out.push_back(v);
        for (int i = 0; i < ulps; ++i) {
            lo = std::nextafter(lo, -kInf);
            hi = std::nextafter(hi, kInf);
            out.push_back(lo);
            out.push_back(hi);
        }
    };

    struct Category
    {
        const char *name;
        std::function<void(std::vector<double> &)> draw;
    };
    const std::vector<Category> categories = {
        {"decimal 1e-16..1e38",
         [&](std::vector<double> &out) {
             for (int i = 0; i < 20000; ++i)
                 out.push_back(std::pow(10.0, -16.0 + 54.0 * unit(rng)));
             // Few significant digits, like model fractions: 0.75, 1.5e-7.
             for (int i = 0; i < 10000; ++i)
                 out.push_back(static_cast<double>(rng() % 100000) /
                               std::pow(10.0, static_cast<int>(rng() % 17)));
         }},
        {"integer",
         [&](std::vector<double> &out) {
             for (int i = 0; i < 10000; ++i) {
                 out.push_back(static_cast<double>(rng() % 1000));
                 out.push_back(static_cast<double>(rng() >> (rng() % 64)));
             }
         }},
        {"tie at digit 13 and 18",
         [&](std::vector<double> &out) {
             out.push_back(1234567890.125);  // P = 12
             out.push_back(1234567890.375);
             out.push_back(1234567890125.0); // 13 digits, ends in 5
             // m / 2^t with m odd has t exact decimals ending in 5;
             // when m * 5^t has P + 1 digits, its (P+1)th is that 5.
             for (int precision : {12, 17})
                 for (int t = 1; t <= 12; ++t) {
                     double lo = std::pow(10.0, precision) /
                                 std::pow(5.0, t);
                     if (10 * lo >= 0x1p53)
                         continue;
                     auto span = static_cast<std::uint64_t>(9 * lo);
                     for (int i = 0; i < 1000; ++i) {
                         std::uint64_t m =
                             (static_cast<std::uint64_t>(lo) +
                              rng() % span) | 1;
                         double v = std::ldexp(static_cast<double>(m), -t);
                         out.push_back(v);
                         out.push_back(-v);
                     }
                 }
         }},
        {"10^k and neighbours",
         [&](std::vector<double> &out) {
             for (int k = -30; k <= 46; ++k)
                 neighbours(out, std::pow(10.0, k), 2);
         }},
        {"carry across the fixed/scientific switch",
         [&](std::vector<double> &out) {
             // 0.99...95 (P nines, then a 5) times a switch point
             // rounds up to it at P digits; the double nearest it and
             // its neighbours fall on either side.
             for (int precision : {12, 17})
                 for (int at : {-4, 12, 17}) {
                     std::string text = "0." +
                                        std::string(precision, '9') +
                                        "5e" + std::to_string(at);
                     double v = std::strtod(text.c_str(), nullptr);
                     neighbours(out, v, 8);
                     neighbours(out, -v, 8);
                 }
         }},
        {"random bits, subnormals, zeros and extremes",
         [&](std::vector<double> &out) {
             for (int i = 0; i < 10000; ++i) {
                 out.push_back(fromBits(rng()));
                 out.push_back(fromBits(rng() & 0x800fffffffffffffULL));
             }
             using lim = std::numeric_limits<double>;
             for (double v : {0.0, -0.0, lim::denorm_min(),
                              -lim::denorm_min(), lim::min(), -lim::min(),
                              0x1.ffffffffffffep-1023, lim::max(),
                              lim::lowest(), lim::infinity(),
                              -lim::infinity(), lim::quiet_NaN(),
                              -lim::quiet_NaN()})
                 out.push_back(v);
         }},
    };

    for (const Category &category : categories) {
        std::vector<double> values;
        category.draw(values);
        std::size_t mismatches = 0;
        auto expectSame = [&](const std::string &got,
                              const std::string &want, const char *what,
                              double v) {
            if (got == want || ++mismatches > 5)
                return;
            char hex[40];
            std::snprintf(hex, sizeof(hex), "%a", v);
            ADD_FAILURE() << category.name << ": seed " << kSeed
                          << ", value " << hex << ", " << what << " wrote '"
                          << got << "', to_chars '" << want << "'";
        };
        for (double v : values) {
            std::string want12 = referenceG(v, 12);
            std::string want17 = referenceG(v, 17);
            expectSame(formattedG(v, 12), want12, "formatGeneral(12)", v);
            expectSame(formattedG(v, 17), want17, "formatGeneral(17)", v);
            std::string json;
            JsonWriter(json).value(v);
            expectSame(json, std::isfinite(v) ? want12 : "null",
                       "JsonWriter::value", v);
            std::string csv;
            appendDouble17(csv, v);
            expectSame(csv, want17, "appendDouble17", v);
        }
        EXPECT_EQ(mismatches, 0u) << category.name;
    }
}

TEST(FormatTest, GeneralMatchesToCharsAtEveryPrecision)
{
    // The repository prints at 12 and 17 digits; the routine takes any
    // precision from 1 to 17.
    constexpr std::uint64_t kSeed = 1003;
    std::mt19937_64 rng(kSeed);
    std::uniform_real_distribution<double> exponent(-20.0, 45.0);
    std::size_t mismatches = 0;
    for (int i = 0; i < 4000; ++i) {
        double v = std::pow(10.0, exponent(rng));
        double round = std::round(v * 1e3) / 1e3; // trailing zeros
        for (int precision = 1; precision <= 17; ++precision)
            for (double w : {v, -round}) {
                std::string want = referenceG(w, precision);
                std::string got = formattedG(w, precision);
                if (got != want && ++mismatches <= 5) {
                    char hex[40];
                    std::snprintf(hex, sizeof(hex), "%a", w);
                    ADD_FAILURE() << "seed " << kSeed << ", value " << hex
                                  << ", precision " << precision << ": '"
                                  << got << "' vs to_chars '" << want
                                  << "'";
                }
            }
    }
    EXPECT_EQ(mismatches, 0u);
}

} // namespace
} // namespace hcm
