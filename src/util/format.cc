#include "format.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace hcm {

namespace {

using u128 = unsigned __int128;

/** formatGeneral's exact path takes |k| <= this in m * 2^e * 10^k. */
constexpr int kMaxScale = 27;

/** 5^0 .. 5^27; 5^27 < 2^63. */
constexpr auto kPow5 = [] {
    struct Table
    {
        std::uint64_t at[kMaxScale + 1] = {};
    } table;
    table.at[0] = 1;
    for (int i = 1; i <= kMaxScale; ++i)
        table.at[i] = table.at[i - 1] * 5;
    return table;
}();

/** 10^0 .. 10^17. */
constexpr auto kPow10 = [] {
    struct Table
    {
        std::uint64_t at[18] = {};
    } table;
    table.at[0] = 1;
    for (int i = 1; i < 18; ++i)
        table.at[i] = table.at[i - 1] * 10;
    return table;
}();

/** "00" "01" .. "99": two digits per store. */
constexpr auto kDigitPairs = [] {
    struct Table
    {
        char at[200] = {};
    } table;
    for (int i = 0; i < 100; ++i) {
        table.at[2 * i] = static_cast<char>('0' + i / 10);
        table.at[2 * i + 1] = static_cast<char>('0' + i % 10);
    }
    return table;
}();

/** Write the @p count low digits of @p v backwards from @p end. */
inline void
writeDigits(char *end, std::uint32_t v, int count)
{
    for (; count >= 2; count -= 2) {
        end -= 2;
        std::memcpy(end, kDigitPairs.at + 2 * (v % 100), 2);
        v /= 100;
    }
    if (count)
        end[-1] = static_cast<char>('0' + v);
}

/**
 * round-half-even(m * 2^e * 10^k), exactly, for m < 2^53,
 * |k| <= kMaxScale and a result of at least 1 and below 2^64. For
 * k >= 0 the product m * 5^k fits in 116 bits and is divided by a power
 * of two; for k < 0 the divisor is 5^-k < 2^63, times a power of two
 * when e + k < 0.
 */
std::uint64_t
scaleRounded(std::uint64_t m, int e, int k)
{
    int s = e + k; // 10^k = 5^k * 2^k leaves the power 2^s
    if (k >= 0) {
        u128 num = u128(m) * kPow5.at[k];
        if (s >= 0)
            return static_cast<std::uint64_t>(num << s); // an integer
        // The quotient is the high bits, the remainder the low ones.
        u128 q = num >> -s;
        u128 rem = num - (q << -s);
        u128 half = u128(1) << (-s - 1);
        return static_cast<std::uint64_t>(q) +
               (rem > half || (rem == half && (q & 1)));
    }
    u128 num = m;
    u128 den = kPow5.at[-k];
    if (s >= 0)
        num <<= s;
    else
        den <<= -s;
    u128 q = num / den;
    u128 rem2 = 2 * (num - q * den);
    return static_cast<std::uint64_t>(q) +
           (rem2 > den || (rem2 == den && (q & 1)));
}

} // namespace

char *
formatGeneral(char *dst, double v, int precision)
{
    const int P = precision;
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    int biased = static_cast<int>(bits >> 52) & 0x7ff;
    std::uint64_t fraction = bits & ((std::uint64_t(1) << 52) - 1);
    if (biased == 0 && fraction == 0) {
        if (bits >> 63)
            *dst++ = '-';
        *dst++ = '0';
        return dst;
    }
    auto fallback = [&] {
        return std::to_chars(dst, dst + kGeneralRoom, v,
                             std::chars_format::general, precision)
            .ptr;
    };
    if (biased == 0 || biased == 0x7ff)
        return fallback(); // subnormal, inf or nan

    // |v| = m * 2^e, in [2^b, 2^(b+1)). Its decimal exponent x is at
    // least floor(b * log10(2)) (b * 78913 >> 18 is that floor for
    // every normal b), and one more when |v| >= 10^that or when
    // rounding to P digits carries into a (P+1)th: scale by 10^k,
    // k = P - 1 - x, and step x up while the rounded significand d has
    // more than P digits.
    std::uint64_t m = fraction | std::uint64_t(1) << 52;
    int e = biased - 1075;
    int b = biased - 1023;
    int k = P - 1 - ((b * 78913) >> 18);
    if (k < -kMaxScale || k > kMaxScale)
        return fallback();
    std::uint64_t d = scaleRounded(m, e, k);
    while (d >= kPow10.at[P]) {
        if (--k < -kMaxScale)
            return fallback();
        d = scaleRounded(m, e, k);
    }
    const int x = P - 1 - k;

    // The P digits of d, in two independent halves below 10^8 and
    // 10^9; then the significant ones: %g drops trailing zeros (and a
    // bare decimal point). The layout reads up to 33 bytes.
    char digits[40] = {};
    if (P > 8) {
        writeDigits(digits + P, static_cast<std::uint32_t>(d % 100000000),
                    8);
        writeDigits(digits + P - 8,
                    static_cast<std::uint32_t>(d / 100000000), P - 8);
    } else {
        writeDigits(digits + P, static_cast<std::uint32_t>(d), P);
    }
    int n = P;
    while (n > 1 && digits[n - 1] == '0')
        --n;

    // The layout copies fixed-size blocks (variable-length copies were
    // half the routine's time) and moves the end past the kept digits.
    if (bits >> 63)
        *dst++ = '-';
    if (x < -4 || x >= P) {
        // Scientific: d[.ddd]e±XX; the scale window keeps |x| < 100.
        dst[0] = digits[0];
        dst[1] = '.';
        std::memcpy(dst + 2, digits + 1, 16);
        dst += n > 1 ? n + 1 : 1;
        dst[0] = 'e';
        dst[1] = x < 0 ? '-' : '+';
        std::memcpy(dst + 2, kDigitPairs.at + 2 * (x < 0 ? -x : x), 2);
        return dst + 4;
    }
    if (x >= 0) {
        // Fixed: x + 1 integer digits, all kept, then the fraction.
        std::memcpy(dst, digits, 17);
        dst[x + 1] = '.';
        std::memcpy(dst + x + 2, digits + x + 1, 16);
        return dst + (n > x + 1 ? n + 1 : x + 1);
    }
    // Fixed below 1: "0." and -x - 1 zeros before the digits.
    std::memcpy(dst, "0.000000", 8);
    std::memcpy(dst + 1 - x, digits, 17);
    return dst + 1 - x + n;
}

std::string
fmtFixed(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
fmtSig(double value, int sig)
{
    if (value == 0.0)
        return "0";
    if (std::isnan(value))
        return "nan";
    if (std::isinf(value))
        return value > 0 ? "inf" : "-inf";

    double mag = std::fabs(value);
    if (mag < 1e-3 || mag >= 1e6)
        return fmtSci(value, std::max(0, sig - 1));

    // Digits before the decimal point.
    int int_digits = (mag < 1.0) ? 0 : static_cast<int>(std::log10(mag)) + 1;
    int decimals = std::max(0, sig - int_digits);
    // Avoid trailing noise like "1500.000" when sig is already satisfied.
    std::string out = fmtFixed(value, decimals);
    if (decimals > 0) {
        // Trim trailing zeros, then a trailing '.'.
        std::size_t last = out.find_last_not_of('0');
        if (last != std::string::npos && out[last] == '.')
            --last;
        out.erase(last + 1);
    }
    return out;
}

std::string
fmtSci(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*e", precision, value);
    return buf;
}

std::string
fmtPercent(double fraction, int precision)
{
    return fmtFixed(fraction * 100.0, precision) + "%";
}

std::string
padLeft(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

std::string
padCenter(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    std::size_t total = width - s.size();
    std::size_t left = total / 2;
    return std::string(left, ' ') + s + std::string(total - left, ' ');
}

std::string
repeat(const std::string &unit, std::size_t count)
{
    std::string out;
    out.reserve(unit.size() * count);
    for (std::size_t i = 0; i < count; ++i)
        out += unit;
    return out;
}

bool
iequals(const std::string &a, const std::string &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

std::string
trim(const std::string &s)
{
    auto not_space = [](unsigned char c) { return !std::isspace(c); };
    auto begin = std::find_if(s.begin(), s.end(), not_space);
    auto end = std::find_if(s.rbegin(), s.rend(), not_space).base();
    if (begin >= end)
        return "";
    return std::string(begin, end);
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == delim) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

} // namespace hcm
