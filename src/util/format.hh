/**
 * @file
 * Small string-formatting helpers. GCC 12 (this toolchain) ships C++20
 * without <format>, so the repo carries its own minimal, well-tested
 * replacements for the handful of formats the tables and charts need.
 */

#ifndef HCM_UTIL_FORMAT_HH
#define HCM_UTIL_FORMAT_HH

#include <charconv>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hcm {

/** Format @p value with @p precision digits after the decimal point. */
std::string fmtFixed(double value, int precision);

/**
 * Format @p value compactly for tables: fixed-point with enough precision
 * to show @p sig significant digits, or scientific notation when the
 * magnitude is outside [1e-3, 1e6).
 */
std::string fmtSig(double value, int sig = 3);

/**
 * Bytes formatGeneral() may write at its destination: the text, at most
 * 24 bytes ("-2.2250738585072014e-308"), and scratch past its end, for
 * it lays digits out with fixed-size copies (at most 35 bytes in all).
 */
inline constexpr std::size_t kGeneralRoom = 40;

/**
 * Write @p v at @p dst exactly as printf "%.*g" prints it, with
 * @p precision (1 to 17) significant digits, in the "C" locale; returns
 * the end of the text. @p dst needs kGeneralRoom bytes of room.
 *
 * A normal double whose decimal exponent is within 27 of the precision
 * (1e-16 to 1e38 at precision 12, 1e-11 to 1e43 at 17) is rounded
 * half-even in 128-bit integers and laid out here; ±0 is written
 * directly; everything else (subnormals, far exponents, inf and nan)
 * goes through std::to_chars(general, precision), which the standard
 * defines as the same "%.*g".
 */
char *formatGeneral(char *dst, double v, int precision);

/**
 * Append @p v as printf "%.17g" would print it (formatGeneral); 17
 * significant digits round-trip every double. The one home of the
 * round-trip-exact text form: sweep CSV cells and Prometheus bucket
 * bounds print through it.
 */
inline void
appendDouble17(std::string &out, double v)
{
    char buf[kGeneralRoom];
    out.append(buf, formatGeneral(buf, v, 17));
}

/** Format in scientific notation with @p precision mantissa digits. */
std::string fmtSci(double value, int precision = 2);

/** Format a value as a percentage ("97.5%"). */
std::string fmtPercent(double fraction, int precision = 1);

/** Left-pad @p s with spaces to @p width columns. */
std::string padLeft(const std::string &s, std::size_t width);

/** Right-pad @p s with spaces to @p width columns. */
std::string padRight(const std::string &s, std::size_t width);

/** Center @p s in @p width columns. */
std::string padCenter(const std::string &s, std::size_t width);

/** Repeat @p unit @p count times. */
std::string repeat(const std::string &unit, std::size_t count);

/** True if two strings are equal ignoring ASCII case. */
bool iequals(const std::string &a, const std::string &b);

/** Strip leading and trailing whitespace. */
std::string trim(const std::string &s);

/** Split @p s on @p delim (no quoting). */
std::vector<std::string> split(const std::string &s, char delim);

/** All of @p text as a finite T (std::from_chars: no whitespace or
 *  '+', no '-' for unsigned T); nullopt otherwise, overflow included. */
template <typename T>
std::optional<T>
parseNumber(std::string_view text)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || stop != end)
        return std::nullopt;
    if constexpr (std::is_floating_point_v<T>)
        if (!std::isfinite(value))
            return std::nullopt;
    return value;
}

} // namespace hcm

#endif // HCM_UTIL_FORMAT_HH
