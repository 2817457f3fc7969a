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
 * Append @p v as printf "%.17g" would print it — the standard defines
 * to_chars(general, 17) as exactly that, and 17 significant digits
 * round-trip every double. The one home of the round-trip-exact text
 * form: canonical query keys, sweep CSV cells and Prometheus bucket
 * bounds all print through it.
 */
inline void
appendDouble17(std::string &out, double v)
{
    char buf[32]; // "-2.2250738585072014e-308" is the longest: 24 chars
    auto result = std::to_chars(buf, buf + sizeof(buf), v,
                                std::chars_format::general, 17);
    out.append(buf, result.ptr);
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

/** Join @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Repeat @p unit @p count times. */
std::string repeat(const std::string &unit, std::size_t count);

/** True if two strings are equal ignoring ASCII case. */
bool iequals(const std::string &a, const std::string &b);

/** Strip leading and trailing whitespace. */
std::string trim(const std::string &s);

/** Split @p s on @p delim (no quoting; see parseCsv for quoted fields). */
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
