/**
 * @file
 * The answer's schema, and the one writer of its bytes. packAnswer()
 * writes a QueryResult straight into a small lossless code, so the
 * cache keeps about 15% of each answer's bytes and nothing
 * renders the text first; every reader expands the codes. A packed
 * answer is the expanded length as a LEB128 varint, then codes:
 *
 *  - a byte below 0x80 stands for itself;
 *  - 0x80 to 0xDC names one of at most 93 vocabulary strings, which the
 *    schema table in answer_codec.cc lists once: the answer's fixed
 *    fragments in the order they are written (the query echo, the
 *    rows' brackets, an error's dispatch keys), then the query type,
 *    workload, scenario, device and error-kind names from their
 *    registries; the echo's "f" and "node" fragments are each followed
 *    by a number;
 *  - 0xDD (the first row) and 0xDE (a row after a comma) open a row
 *    record: one index byte for the row's organization, node and
 *    limiter, or for not feasible, then, when it is feasible, its four
 *    numbers (r, n, speedup, energyNormalized); the expander writes
 *    the members' keys, quotes, commas and braces from the row table;
 *  - 0xDF stands for the byte after it, so free text with bytes of 0x80
 *    or above packs too; 0xE0 to 0xFF are not written.
 *
 * A number is its sign, its significant digits and its decimal
 * exponent: one header byte (a non-negative number with an exponent of
 * -4 to 5, an integer below 64, any other with the exponent in two more
 * bytes, or null when not finite), then the digits two to a byte. The
 * expander lays them out by "%.12g"'s own rule (fixed, with "0." and
 * leading zeros below 1, or scientific "e±dd"), so the text is what
 * JsonWriter prints: "%.12g" (formatGeneral), null when not finite.
 *
 * Free text (an error message, an echoed requestId, a workload or
 * scenario spelled outside the registries) is JSON-escaped exactly as
 * JsonWriter escapes it and written as literals, as are retryAfterMs's
 * digits.
 */

#ifndef HCM_SVC_ANSWER_CODEC_HH
#define HCM_SVC_ANSWER_CODEC_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace hcm {
namespace svc {

struct QueryResult;

/**
 * Bytes expandAnswer() may overwrite past the end of its output: each
 * of its fixed-size copies (a 32-byte vocabulary slot, a 64-byte row
 * slot, a number's 16 bytes) reaches at most this far past its text.
 */
constexpr std::size_t kAnswerExpandSlack = 32;

/** The vocabulary, in code order: code 0x80 + i names entry i. */
const std::vector<std::string> &answerVocabulary();

/** Append @p result's answer, packed, to @p out. */
void packAnswer(const QueryResult &result, std::string &out);

/** Length of the text @p packed expands to; 0 for an empty string. */
std::size_t expandedSize(std::string_view packed);

/**
 * Write the text @p packed expands to at @p dst and return its end.
 * @p dst needs room for expandedSize() bytes plus kAnswerExpandSlack,
 * which may be overwritten with scratch.
 */
char *expandAnswer(std::string_view packed, char *dst);

/** Append the text @p packed expands to to @p out. */
void appendExpanded(std::string_view packed, std::string &out);

} // namespace svc
} // namespace hcm

#endif // HCM_SVC_ANSWER_CODEC_HH
